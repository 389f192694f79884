// The sharded detector core at production scale.
//
// Three claims, each gated by tools/bench_gate.py:
//  * checks/sec scales with the shard count under real 8-thread contention
//    on the per-op path (lock the area's shard, check_one, store_access):
//    8 shards must not be slower than 2 beyond CI-machine slack;
//  * area registration stays amortized O(1): ns/area at 10^6 areas within a
//    small factor of ns/area at 16k (the PublicSegment sorted-index fix);
//  * piggybacking both area clocks charges the second as a delta against the
//    first — exact deterministic bytes per message, equal clocks collapsing
//    to two bytes.
#include <chrono>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "detect/sharded_detector.hpp"
#include "mem/public_segment.hpp"
#include "net/message.hpp"
#include "util/assert.hpp"

namespace dsmr::bench {
namespace {

using clocks::VectorClock;
using detect::ShardedDetector;

constexpr std::size_t kAreas = 1'000'000;

/// Keeps `value` observable so the compiler cannot drop the call that made
/// it: an empty asm that reads it and clobbers memory.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "m"(value) : "memory");
}

/// ns per op with 8 threads doing check+store rounds against one detector
/// partitioned into `shards` shards — the ThreadWorld inline-path shape.
double contended_ns_per_op(int shards) {
  constexpr std::size_t kProcs = 8;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kOpsPerThread = 100'000;
  constexpr std::size_t kHotAreas = 4096;  // small enough to collide, mod shards.
  ShardedDetector det(kProcs, /*home=*/0, shards);
  det.register_areas(kHotAreas);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &det]() {
      const auto rank = static_cast<Rank>(t);
      VectorClock clk(kProcs);
      std::uint64_t x = static_cast<std::uint64_t>(t) * 2654435761u + 1;
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;  // xorshift: cheap, deterministic per thread.
        const auto id = static_cast<detect::AreaId>(x % kHotAreas);
        clk[static_cast<std::size_t>(rank)] += 1;
        std::lock_guard<std::mutex> guard(det.shard_mutex(id));
        const auto verdict =
            det.check_one(core::DetectorMode::kDualClock, core::AccessKind::kWrite,
                          rank, clk, id);
        keep(verdict);
        det.store_access(id, rank, clk, /*is_write=*/true, rank, i + 1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
         static_cast<double>(kThreads * kOpsPerThread);
}

/// ns per registered area along the full World::alloc path — PublicSegment
/// bump allocation through the amortized sorted index, plus detector
/// registration — at two scales. Amortized O(1) keeps them within a small
/// factor (the old always-sorted insert was what this bench guards against).
double registration_ns_per_area(std::size_t count) {
  const auto start = std::chrono::steady_clock::now();
  mem::PublicSegment segment(0, static_cast<std::uint32_t>(8 * count), 64);
  ShardedDetector det(64, /*home=*/0, /*shards=*/8);
  for (std::size_t i = 0; i < count; ++i) {
    const mem::AreaId id = segment.allocate_area(8, "x");
    det.register_area(id);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  DSMR_CHECK(det.area_count() == count && segment.area_count() == count);
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
         static_cast<double>(count);
}

/// Exact charged clock bytes for a dual-clock message at n=64: the V clock
/// plain, the W clock delta-encoded against it (net::Message accounting).
double piggyback_clock_bytes(bool diverged) {
  net::Message m;
  m.clock = VectorClock(64);
  for (std::size_t i = 0; i < 64; ++i) m.clock[i] = 100 + i;
  m.clock2 = m.clock;
  if (diverged) {
    m.clock2[3] += 1;
    m.clock2[40] += 7;
  }
  return static_cast<double>(m.charged_clock_bytes());
}

void print_summary() {
  {
    util::Table table({"shards", "ns/op (8 threads)", "Mops/s"});
    for (const int shards : {1, 2, 8}) {
      const double ns = contended_ns_per_op(shards);
      table.add_row({util::Table::fmt_int(static_cast<std::uint64_t>(shards)),
                     util::Table::fmt(ns, 1), util::Table::fmt(1000.0 / ns, 1)});
      json_add("detect_shard_scaling", {{"threads", "8"}, {"shards", std::to_string(shards)}},
               ns);
    }
    print_table(
        "=== Sharded detector: 8-thread check+store contention vs shard count ===",
        table);
  }
  {
    util::Table table({"areas", "ns/area"});
    const double small = registration_ns_per_area(16'384);
    const double large = registration_ns_per_area(kAreas);
    table.add_row({"16384", util::Table::fmt(small, 1)});
    table.add_row({"1000000", util::Table::fmt(large, 1)});
    json_add("detect_registration", {{"areas", "16384"}}, small);
    json_add("detect_registration", {{"areas", "1000000"}}, large);
    print_table("=== Area registration stays amortized O(1) ===", table);
  }
  {
    util::Table table({"clock state (n=64)", "charged bytes"});
    const double equal = piggyback_clock_bytes(false);
    const double diverged = piggyback_clock_bytes(true);
    table.add_row({"V == W", util::Table::fmt(equal, 0)});
    table.add_row({"W diverges in 2 slots", util::Table::fmt(diverged, 0)});
    json_add("piggyback_clock_bytes", {{"n", "64"}, {"state", "equal"}}, 0.0, equal);
    json_add("piggyback_clock_bytes", {{"n", "64"}, {"state", "diverged"}}, 0.0,
             diverged);
    print_table("=== Piggyback cost: dual clocks, second delta-encoded ===", table);
  }
}

}  // namespace
}  // namespace dsmr::bench

int main(int argc, char** argv) {
  return dsmr::bench::run_bench(argc, argv, "detect_scale", dsmr::bench::print_summary);
}
