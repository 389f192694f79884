// Global address space addressing: (processor_name, local_address).
//
// Paper §III.A: "This couple (processor_name, local_address) is the
// addressing system used in the global address space."
#pragma once

#include <cstdint>
#include <string>

#include "util/types.hpp"

namespace dsmr::mem {

struct GlobalAddress {
  Rank rank = kInvalidRank;    ///< the processor whose public memory holds the data.
  std::uint32_t offset = 0;    ///< byte offset inside that processor's public segment.

  bool operator==(const GlobalAddress&) const = default;

  GlobalAddress plus(std::uint32_t bytes) const { return {rank, offset + bytes}; }

  std::string to_string() const {
    std::string out = "P";  // appended: GCC 12 misreports "P" + ... under -Wrestrict.
    out += std::to_string(rank);
    out += '+';
    out += std::to_string(offset);
    return out;
  }
};

}  // namespace dsmr::mem
