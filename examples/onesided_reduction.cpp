// The paper's §V.B future-work operation: a *non-collective* global
// reduction. Every rank publishes a value in its public memory; the root
// fetches and folds them all with one-sided gets, "without any
// participation for the other processes".
//
// The example contrasts three variants:
//   barrier    — publish, barrier, reduce: race-free (recommended usage);
//   unsynced   — the root merely waits a while: the detector flags the
//                gets racing with the publishes;
//   collective — a conventional allreduce for comparison (all ranks
//                participate; more messages, full synchronization).
//
//   ./onesided_reduction [--ranks N] [--variant barrier|unsynced|collective]
#include <cstdio>
#include <string>
#include <vector>

#include "pgas/collectives.hpp"
#include "runtime/world.hpp"
#include "util/cli.hpp"

using namespace dsmr;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const int ranks = cli.get_int("ranks", 4, 1);
  const std::string variant =
      cli.get_choice("variant", "barrier", {"barrier", "unsynced", "collective"});
  if (!cli.ok()) return 2;

  runtime::WorldConfig config;
  config.nprocs = ranks;
  config.print_races = true;
  runtime::World world(config);

  std::vector<mem::GlobalAddress> cells;
  for (Rank r = 0; r < ranks; ++r) {
    cells.push_back(world.alloc(r, sizeof(std::uint64_t), "cell" + std::to_string(r)));
  }

  std::uint64_t result = 0;
  for (Rank r = 0; r < ranks; ++r) {
    world.spawn(r, [&, r](runtime::Process& p) -> sim::Task {
      pgas::Team team(p);
      const auto mine = static_cast<std::uint64_t>(r + 1);
      if (variant == "collective") {
        const auto sum = co_await team.allreduce(
            mine, [](std::uint64_t a, std::uint64_t b) { return a + b; });
        if (p.rank() == 0) result = sum;
        co_return;
      }
      co_await p.put_value(cells[static_cast<std::size_t>(r)], mine);
      if (variant == "barrier") {
        co_await team.barrier();
      } else if (p.rank() == 0) {
        co_await p.sleep(50'000);  // "they're probably done" — not an ordering!
      }
      if (p.rank() == 0) {
        result = co_await pgas::onesided_reduce(
            p, cells, std::uint64_t{0},
            [](std::uint64_t a, std::uint64_t b) { return a + b; });
      }
    });
  }

  const auto report = world.run();
  const auto expected =
      static_cast<std::uint64_t>(ranks) * (static_cast<std::uint64_t>(ranks) + 1) / 2;

  std::printf("\n--- one-sided reduction summary (%s) ---\n", variant.c_str());
  std::printf("completed:     %s\n", report.completed ? "yes" : "NO");
  std::printf("sum:           %llu (expected %llu)\n",
              static_cast<unsigned long long>(result),
              static_cast<unsigned long long>(expected));
  std::printf("race reports:  %llu%s\n", static_cast<unsigned long long>(report.race_count),
              variant == "unsynced" ? "  <- the §V.B hazard: gets race with publishes"
                                    : "");
  std::printf("wire traffic:  %llu messages (%llu data-path)\n",
              static_cast<unsigned long long>(world.traffic().total_messages),
              static_cast<unsigned long long>(world.traffic().data_path_messages));
  return 0;
}
