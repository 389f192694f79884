// JSON string escaping for the hand-written JSON the tools and the trace
// renderer emit.
#pragma once

#include <string>

namespace dsmr::util {

/// Minimal JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(const std::string& text);

}  // namespace dsmr::util
