// Distributed shared arrays over the instrumented DSM runtime.
//
// `SharedArray<T>` plays the part of a PGAS language's shared array: the
// programmer indexes globally, the library resolves (rank, offset) — the
// address-resolution role the paper assigns to the compiler (§III.A).
//
// The *chunk* parameter sets the registration granularity: how many
// consecutive local elements share one registered area, i.e. one lock and
// one (V, W) clock pair. Chunk = 1 gives per-element detection precision at
// maximal clock memory; larger chunks trade precision for space — the
// granularity ablation in bench/paper_tables.cpp quantifies both directions
// (the analogue of false sharing for detection).
#pragma once

#include <string>
#include <vector>

#include "mem/global_address.hpp"
#include "pgas/distribution.hpp"
#include "runtime/process.hpp"
#include "runtime/world.hpp"
#include "sim/future.hpp"
#include "util/assert.hpp"

namespace dsmr::pgas {

template <typename T>
class SharedArray {
  static_assert(std::is_trivially_copyable_v<T>,
                "shared arrays move raw bytes through public memory");

 public:
  /// Collectively allocates a `count`-element array before World::run.
  static SharedArray allocate(runtime::World& world, std::size_t count,
                              Distribution dist, std::size_t chunk_elems = 1,
                              const std::string& name = "array") {
    DSMR_REQUIRE(count > 0, "shared array needs at least one element");
    DSMR_REQUIRE(chunk_elems > 0, "chunk granularity must be positive");
    SharedArray array;
    array.count_ = count;
    array.dist_ = dist;
    array.chunk_ = chunk_elems;
    array.nprocs_ = world.nprocs();
    array.chunks_by_rank_.resize(static_cast<std::size_t>(world.nprocs()));
    for (Rank r = 0; r < world.nprocs(); ++r) {
      const std::size_t locals = local_count(dist, r, count, world.nprocs());
      const std::size_t nchunks = (locals + chunk_elems - 1) / chunk_elems;
      auto& chunks = array.chunks_by_rank_[static_cast<std::size_t>(r)];
      for (std::size_t c = 0; c < nchunks; ++c) {
        const std::size_t elems = std::min(chunk_elems, locals - c * chunk_elems);
        chunks.push_back(world.alloc(
            r, static_cast<std::uint32_t>(elems * sizeof(T)),
            name + "[" + std::to_string(r) + "." + std::to_string(c) + "]"));
      }
    }
    return array;
  }

  std::size_t size() const { return count_; }
  Distribution distribution() const { return dist_; }
  std::size_t chunk_elems() const { return chunk_; }

  Rank owner(std::size_t index) const {
    return place(dist_, index, count_, nprocs_).owner;
  }

  /// Global address of element `index`.
  mem::GlobalAddress address(std::size_t index) const {
    const Placement p = place(dist_, index, count_, nprocs_);
    const std::size_t chunk_index = p.local_index / chunk_;
    const std::size_t within = p.local_index % chunk_;
    const auto& chunks = chunks_by_rank_[static_cast<std::size_t>(p.owner)];
    DSMR_CHECK(chunk_index < chunks.size());
    return chunks[chunk_index].plus(static_cast<std::uint32_t>(within * sizeof(T)));
  }

  /// Address of the registered area (= lock, = clock pair) containing
  /// element `index` — what Process::lock expects.
  mem::GlobalAddress chunk_address(std::size_t index) const {
    const Placement p = place(dist_, index, count_, nprocs_);
    return chunks_by_rank_[static_cast<std::size_t>(p.owner)][p.local_index / chunk_];
  }

  sim::Future<T> read(runtime::Process& self, std::size_t index) const {
    return self.get_value<T>(address(index));
  }

  sim::Future<void> write(runtime::Process& self, std::size_t index, const T& value) const {
    return self.put_value(address(index), value);
  }

 private:
  SharedArray() = default;

  std::size_t count_ = 0;
  Distribution dist_ = Distribution::kBlock;
  std::size_t chunk_ = 1;
  int nprocs_ = 0;
  std::vector<std::vector<mem::GlobalAddress>> chunks_by_rank_;
};

}  // namespace dsmr::pgas
