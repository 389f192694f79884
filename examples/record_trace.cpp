// Records a racy workload's ordering log, folds it offline, and renders the
// result for external tooling:
//   * <prefix>.jsonl       — every recorded event and folded race report,
//                            one JSON object per line (jq / pandas friendly);
//   * <prefix>.chrome.json — Chrome Trace Event Format: open in
//                            chrome://tracing or https://ui.perfetto.dev to
//                            see per-rank rows in recorded order, with the
//                            race markers on the event that triggered them.
//
//   ./record_trace [--workload stencil|histogram|masterworker] [--buggy]
//                  [--ranks N] [--out PREFIX]
#include <cstdio>
#include <fstream>
#include <string>

#include "record/replay.hpp"
#include "runtime/world.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "workload/workloads.hpp"

using namespace dsmr;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::string workload =
      cli.get_choice("workload", "stencil", {"stencil", "histogram", "masterworker"});
  const bool buggy = cli.get_flag("buggy");
  const int ranks = cli.get_int("ranks", 4, 1);
  const std::string prefix = cli.get_string("out", "dsmr_trace");
  cli.check(workload != "masterworker" || ranks >= 2, "masterworker needs --ranks >= 2");
  if (!cli.ok()) return 2;
  // Both outputs are opened before the run: a bad prefix is an argv error.
  const std::string jsonl_path = prefix + ".jsonl";
  const std::string chrome_path = prefix + ".chrome.json";
  std::ofstream jsonl(jsonl_path);
  std::ofstream chrome(chrome_path);
  if (!jsonl || !chrome) {
    std::fprintf(stderr, "record_trace: cannot write --out %s\n",
                 (!jsonl ? jsonl_path : chrome_path).c_str());
    return 2;
  }

  runtime::WorldConfig config;
  config.nprocs = ranks;
  runtime::World world(config);
  world.record();

  if (workload == "stencil") {
    workload::StencilConfig wl;
    wl.cells_per_rank = 8;
    wl.iters = 3;
    wl.buggy = buggy;
    workload::spawn_stencil(world, wl);
  } else if (workload == "histogram") {
    workload::HistogramConfig wl;
    wl.bins = 6;
    wl.increments_per_rank = 10;
    wl.locked = !buggy;
    workload::spawn_histogram(world, wl);
  } else {
    workload::spawn_master_worker(world, workload::MasterWorkerConfig{});
  }

  const auto report = world.run();
  const record::Log& log = world.log();
  const record::ReplayResult folded = record::replay_fold(log, log.header.mode);
  if (!folded.ok()) {
    std::fprintf(stderr, "fold failed: %s\n", folded.error.c_str());
    return 1;
  }

  trace::write_jsonl(jsonl, log, folded.reports);
  trace::write_chrome(chrome, log, folded.reports);

  std::printf("workload:   %s%s on %d ranks\n", workload.c_str(),
              buggy ? " (buggy)" : "", ranks);
  std::printf("completed:  %s, %zu recorded events, %llu races, %llu messages\n",
              report.completed ? "yes" : "NO", log.events.size(),
              static_cast<unsigned long long>(report.race_count),
              static_cast<unsigned long long>(world.traffic().total_messages));
  std::printf("wrote %s and %s\n", jsonl_path.c_str(), chrome_path.c_str());
  std::printf("view: chrome://tracing or https://ui.perfetto.dev -> open %s\n",
              chrome_path.c_str());
  return 0;
}
