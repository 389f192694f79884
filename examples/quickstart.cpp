// Quickstart: the smallest end-to-end use of the dsmr library.
//
// Three processes share one counter in P0's public memory. Two of them
// increment it with unsynchronized one-sided get/put — the detector signals
// the races (and the counter may lose updates). Run again with --locked and
// the NIC area locks serialize the increments: no reports, no lost updates.
//
//   ./quickstart [--locked] [--increments N] [--seed S]
#include <cstdio>

#include "runtime/process.hpp"
#include "runtime/world.hpp"
#include "util/cli.hpp"

using namespace dsmr;

namespace {

sim::Task incrementer(runtime::Process& p, mem::GlobalAddress counter, int increments,
                      bool locked) {
  for (int i = 0; i < increments; ++i) {
    if (locked) co_await p.lock(counter);
    const auto value = co_await p.get_value<std::uint64_t>(counter);
    co_await p.put_value(counter, value + 1);
    if (locked) co_await p.unlock(counter);
  }
  std::printf("[P%d] done after %d increments at t=%llu ns\n", p.rank(), increments,
              static_cast<unsigned long long>(p.now()));
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const bool locked = cli.get_flag("locked");
  const int increments = cli.get_int("increments", 10, 0);
  const auto seed = cli.get_uint("seed", 1);
  if (!cli.ok()) return 2;

  runtime::WorldConfig config;
  config.nprocs = 3;
  config.seed = seed;
  config.print_races = true;  // §IV.D: signal races, never abort.
  runtime::World world(config);

  const mem::GlobalAddress counter = world.alloc(0, sizeof(std::uint64_t), "counter");

  world.spawn(1, [&](runtime::Process& p) { return incrementer(p, counter, increments, locked); });
  world.spawn(2, [&](runtime::Process& p) { return incrementer(p, counter, increments, locked); });

  const auto report = world.run();

  std::uint64_t final_value = 0;
  const auto bytes = world.segment(0).read_bytes(counter.offset, sizeof(final_value));
  std::memcpy(&final_value, bytes.data(), sizeof(final_value));

  std::printf("\n--- quickstart summary (%s) ---\n", locked ? "locked" : "unsynchronized");
  std::printf("completed:        %s\n", report.completed ? "yes" : "NO (deadlock)");
  std::printf("virtual time:     %llu ns\n", static_cast<unsigned long long>(report.end_time));
  std::printf("final counter:    %llu (expected %d)\n",
              static_cast<unsigned long long>(final_value), 2 * increments);
  std::printf("race reports:     %llu\n", static_cast<unsigned long long>(report.race_count));
  std::printf("messages on wire: %llu\n",
              static_cast<unsigned long long>(world.traffic().total_messages));
  if (!locked && report.race_count == 0) {
    std::printf("note: no race this run — try another --seed\n");
  }
  return 0;
}
