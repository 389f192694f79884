// Compile-and-link check of the umbrella header: one tiny end-to-end run
// touching each public layer through "dsmr.hpp" alone.
#include <gtest/gtest.h>

#include <sstream>

#include "dsmr.hpp"

namespace {

TEST(Umbrella, EndToEndThroughThePublicApi) {
  dsmr::runtime::WorldConfig config;
  config.nprocs = 3;
  dsmr::runtime::World world(config);
  world.record();

  auto array = dsmr::pgas::SharedArray<std::uint64_t>::allocate(
      world, 6, dsmr::pgas::Distribution::kBlock);

  for (dsmr::Rank r = 0; r < 3; ++r) {
    world.spawn(r, [array, r](dsmr::runtime::Process& p) -> dsmr::sim::Task {
      dsmr::pgas::Team team(p);
      co_await array.write(p, static_cast<std::size_t>(r), static_cast<std::uint64_t>(r));
      co_await team.barrier();
      const auto total = co_await team.allreduce(
          std::uint64_t{1}, [](std::uint64_t a, std::uint64_t b) { return a + b; });
      EXPECT_EQ(total, 3u);
    });
  }
  const auto report = world.run();
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(world.races().count(), 0u);

  const auto truth = dsmr::analysis::compute_ground_truth(world.log());
  EXPECT_TRUE(truth.pairs.empty());
  // The lockset baseline must agree with the zero-race ground truth here:
  // every rank touches only its own array element, so no area ever leaves
  // the Eraser exclusive state and no warning may fire.
  const auto lockset = dsmr::baseline::LocksetDetector::analyze(world.log());
  EXPECT_TRUE(lockset.warnings.empty());
  EXPECT_TRUE(lockset.flagged_areas.empty());

  const auto folded = dsmr::record::replay_fold(world.log(), config.mode);
  ASSERT_TRUE(folded.ok()) << folded.error;
  EXPECT_TRUE(folded.reports.empty());
  std::ostringstream chrome;
  dsmr::trace::write_chrome(chrome, world.log(), folded.reports);
  EXPECT_NE(chrome.str().find("\"traceEvents\""), std::string::npos);
}

}  // namespace
