// dsmr_bench: runs the benchmark's workloads, checks their outputs, and
// prints every metric as one line `<workload> <metric> <value> <unit>`.
//
//   dsmr_bench --workload NAME|all [--seed N] [--seconds S] [--trace FILE] [--smoke]
//
// Without --trace, each workload runs one untraced pass that measures the
// end-to-end metrics for S seconds. With --trace FILE, a traced pass follows
// it (each pass then gets S/2 seconds) and prints the per-layer metrics; the
// spans of both the traced pass and any fill-in runs go to FILE as
// Chrome-trace JSON. A per-layer metric the traced workload does not
// exercise (runtime.lock_ns_p50 on thread_private, say) is measured by a
// smoke-size traced run of the workload that does, and its line says so.
// --smoke shrinks every size so all five workloads finish in seconds.
//
// Lines starting with '#' are comments: the seed, every size, notes, and
// the failed checks. Exit status: 0 when every check passed, 1 when one
// failed, 2 on bad arguments or a missing metric.
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace dsmr::bench {
namespace {

struct WorkloadSpec {
  const char* name;
  void (*run)(Run&);
};

constexpr WorkloadSpec kWorkloads[] = {
    {"thread_private", thread_private}, {"thread_contended", thread_contended},
    {"record_fold", record_fold},       {"sim_sweep", sim_sweep},
    {"explore_certify", explore_certify},
};

/// Every metric the benchmark prints. `home` is the workload that measures
/// a per-layer metric when the traced workload does not; null means every
/// workload measures it itself. BENCHMARK.json lists the same names and
/// units (run.py --smoke checks that they agree).
struct MetricSpec {
  const char* name;
  const char* unit;
  bool end_to_end;
  const char* home;
};

constexpr const char* kPrivate = "thread_private";
constexpr const char* kContended = "thread_contended";
constexpr const char* kRecord = "record_fold";
constexpr const char* kSim = "sim_sweep";
constexpr const char* kExplore = "explore_certify";

constexpr MetricSpec kMetrics[] = {
    {"throughput", "1/s", true, nullptr},
    {"slowdown", "ratio", true, nullptr},
    {"setup_s", "s", true, nullptr},
    {"peak_rss_mb", "MB", true, nullptr},

    {"runtime.put_ns_p50", "ns", false, kPrivate},
    {"runtime.put_ns_p99", "ns", false, kPrivate},
    {"runtime.get_ns_p50", "ns", false, kPrivate},
    {"runtime.get_ns_p99", "ns", false, kPrivate},
    {"runtime.lock_ns_p50", "ns", false, kContended},
    {"runtime.lock_ns_p99", "ns", false, kContended},
    {"runtime.unlock_ns_p50", "ns", false, kContended},
    {"runtime.signal_ns_p50", "ns", false, kContended},
    {"runtime.wait_ns_p50", "ns", false, kContended},
    {"runtime.wait_ns_p99", "ns", false, kContended},
    {"runtime.spawn_join_ms", "ms", false, kPrivate},
    {"runtime.checks_per_op", "count/op", false, kPrivate},
    {"runtime.put_residual_ns", "ns", false, kPrivate},
    {"runtime.scale_eff", "ratio", false, kPrivate},
    {"mem.find_area_ns", "ns", false, nullptr},
    {"detect.check_store_ns", "ns", false, nullptr},
    {"net.account_ns", "ns", false, nullptr},
    {"record.stamp_ns", "ns", false, nullptr},
    {"record.stamp_ns_4t", "ns", false, nullptr},
    {"detect.resident_clock_bytes", "B", false, kPrivate},
    {"detect.storage_bytes_per_area", "B", false, kPrivate},
    {"detect.races", "count", false, kContended},
    {"net.messages_per_op", "count/op", false, kPrivate},
    {"net.bytes_per_op", "B/op", false, kPrivate},
    {"net.clock_bytes_per_op", "B/op", false, kPrivate},
    {"nic.data_path_messages_per_world", "count", false, kSim},
    {"record.finish_ms", "ms", false, kRecord},
    {"record.serialize_ms", "ms", false, kRecord},
    {"record.parse_ms", "ms", false, kRecord},
    {"record.fold_ms", "ms", false, kRecord},
    {"record.bytes_per_event", "B", false, kRecord},
    {"record.events_per_op", "count/op", false, kRecord},
    {"record.fold_events_per_s", "1/s", false, kRecord},
    {"sim.setup_us_p50", "us", false, kSim},
    {"sim.run_ms_p50", "ms", false, kSim},
    {"sim.run_ms_p99", "ms", false, kSim},
    {"sim.ns_per_event", "ns", false, kSim},
    {"sim.events_per_world", "count", false, kSim},
    {"sim.races_per_world", "count", false, kSim},
    {"fuzz.generate_us_p50", "us", false, kExplore},
    {"explore.program_us_p50", "us", false, kExplore},
    {"explore.program_us_p99", "us", false, kExplore},
    {"explore.us_per_transition", "us", false, kExplore},
    {"explore.interleavings", "count", false, kExplore},
    {"explore.transitions", "count", false, kExplore},
    {"explore.sleep_blocked", "count", false, kExplore},
    {"explore.pruned_branches", "count", false, kExplore},
    {"explore.useful_frac", "ratio", false, kExplore},
    {"trace.overhead_frac", "ratio", false, nullptr},
};

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Shortest decimal that reads back as exactly `value`.
std::string format(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, result.ptr);
}

void print_metric(const std::string& workload, const MetricSpec& spec, double value,
                  const std::string& comment = "") {
  std::printf("%s %s %s %s%s\n", workload.c_str(), spec.name, format(value).c_str(), spec.unit,
              comment.c_str());
}

struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool missing_metric = false;

  void add(const Run& run) {
    attempted += run.attempted;
    failed += run.failed;
    for (const std::string& failure : run.failures) {
      std::printf("# FAILED %s\n", failure.c_str());
    }
    for (const std::string& note : run.notes) std::printf("# %s\n", note.c_str());
  }
};

struct Options {
  std::vector<const WorkloadSpec*> workloads;
  std::uint64_t seed = 1;
  double seconds = 20;
  std::string trace_path;
  bool smoke = false;
};

int usage(const char* error) {
  std::fprintf(stderr,
               "dsmr_bench: %s\n"
               "usage: dsmr_bench --workload NAME|all [--seed N] [--seconds S] [--trace FILE] "
               "[--smoke]\nworkloads:",
               error);
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

/// Runs one workload's passes and prints its lines. Traced passes append
/// their tracers (the workload's, then one per fill-in run) to `tracers`
/// and their op counts to `runs_json`.
void run_workload(const WorkloadSpec& workload, const Options& options, Totals& totals,
                  std::vector<std::unique_ptr<Tracer>>& tracers, std::string& runs_json) {
  const bool trace = !options.trace_path.empty();
  Run e2e;
  e2e.workload = workload.name;
  e2e.seed = options.seed;
  e2e.seconds = trace ? options.seconds / 2 : options.seconds;
  e2e.smoke = options.smoke;
  workload.run(e2e);
  e2e.set("peak_rss_mb", peak_rss_mb());

  std::printf("# dsmr_bench workload=%s seed=%" PRIu64 " seconds=%s smoke=%d trace=%d\n",
              workload.name, options.seed, format(options.seconds).c_str(),
              options.smoke ? 1 : 0, trace ? 1 : 0);
  std::printf("# sizes %s", workload.name);
  for (const auto& [name, value] : e2e.sizes) std::printf(" %s=%" PRIu64, name.c_str(), value);
  std::printf("\n");
  totals.add(e2e);
  for (const MetricSpec& spec : kMetrics) {
    if (!spec.end_to_end) continue;
    const auto it = e2e.metrics.find(spec.name);
    if (it == e2e.metrics.end()) {
      std::printf("# MISSING %s %s\n", workload.name, spec.name);
      totals.missing_metric = true;
      continue;
    }
    print_metric(workload.name, spec, it->second);
  }

  if (trace) {
    const auto add_tracer = [&](const std::string& label) {
      tracers.push_back(std::make_unique<Tracer>(static_cast<int>(tracers.size()) + 1, label));
      return tracers.back().get();
    };
    const auto note_run = [&](const Run& run, const Tracer& tracer) {
      if (!runs_json.empty()) runs_json += ", ";
      runs_json += "{\"pid\": " + std::to_string(tracer.pid()) + ", \"workload\": \"" +
                   run.workload + "\", \"ops\": " + std::to_string(run.traced_ops) +
                   ", \"op_hist_count\": " + std::to_string(tracer.op_hist_count()) + "}";
      std::fputs(self_time_table(tracer).c_str(), stderr);
    };

    Run traced;
    traced.workload = workload.name;
    traced.seed = options.seed;
    traced.seconds = options.seconds / 2;
    traced.smoke = options.smoke;
    traced.tracer = add_tracer(workload.name);
    workload.run(traced);
    totals.add(traced);
    note_run(traced, *traced.tracer);

    std::map<std::string, Run> fills;
    for (const MetricSpec& spec : kMetrics) {
      if (spec.end_to_end) continue;
      if (const auto it = traced.metrics.find(spec.name); it != traced.metrics.end()) {
        print_metric(workload.name, spec, it->second);
        continue;
      }
      if (spec.home == nullptr) {
        std::printf("# MISSING %s %s\n", workload.name, spec.name);
        totals.missing_metric = true;
        continue;
      }
      if (!fills.contains(spec.home)) {
        Run& fill = fills[spec.home];
        fill.workload = spec.home;
        fill.seed = options.seed;
        fill.seconds = 0;
        fill.smoke = true;
        fill.tracer = add_tracer(std::string(spec.home) + " (smoke fill-in)");
        find_workload(spec.home)->run(fill);
        totals.add(fill);
        note_run(fill, *fill.tracer);
      }
      const Run& fill = fills[spec.home];
      const auto it = fill.metrics.find(spec.name);
      if (it == fill.metrics.end()) {
        std::printf("# MISSING %s %s (home %s)\n", workload.name, spec.name, spec.home);
        totals.missing_metric = true;
        continue;
      }
      print_metric(workload.name, spec, it->second,
                   std::string("  # from ") + spec.home + " smoke");
    }
  }
  std::fflush(stdout);
}

int bench_main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--workload") {
      const char* name = value();
      if (name == nullptr) return usage("--workload needs a value");
      if (std::strcmp(name, "all") == 0) {
        for (const WorkloadSpec& w : kWorkloads) options.workloads.push_back(&w);
      } else if (const WorkloadSpec* w = find_workload(name)) {
        options.workloads.push_back(w);
      } else {
        return usage((std::string("unknown workload ") + name).c_str());
      }
    } else if (arg == "--seed") {
      const char* text = value();
      if (text == nullptr) return usage("--seed needs a value");
      const char* end = text + std::strlen(text);
      if (std::from_chars(text, end, options.seed).ptr != end || *text == '\0') {
        return usage("--seed must be a non-negative integer");
      }
    } else if (arg == "--seconds") {
      const char* text = value();
      if (text == nullptr) return usage("--seconds needs a value");
      const char* end = text + std::strlen(text);
      if (std::from_chars(text, end, options.seconds).ptr != end || !(options.seconds > 0) ||
          options.seconds > 3600) {
        return usage("--seconds must be a number in (0, 3600]");
      }
    } else if (arg == "--trace") {
      const char* path = value();
      if (path == nullptr) return usage("--trace needs a file");
      options.trace_path = path;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workloads.empty()) return usage("--workload is required");

  Totals totals;
  std::vector<std::unique_ptr<Tracer>> tracers;
  std::string runs_json;
  for (const WorkloadSpec* workload : options.workloads) {
    const std::uint64_t attempted = totals.attempted;
    const std::uint64_t failed = totals.failed;
    run_workload(*workload, options, totals, tracers, runs_json);
    const std::uint64_t a = totals.attempted - attempted;
    const std::uint64_t f = totals.failed - failed;
    std::printf("%s checks.attempted %" PRIu64 " count\n", workload->name, a);
    std::printf("%s checks.failed %" PRIu64 " count\n", workload->name, f);
    std::printf("%s fail_frac %s ratio\n", workload->name,
                format(a > 0 ? static_cast<double>(f) / static_cast<double>(a) : 1.0).c_str());
    std::fflush(stdout);
  }

  if (!options.trace_path.empty()) {
    std::vector<const Tracer*> views;
    for (const auto& tracer : tracers) views.push_back(tracer.get());
    const std::string other = "{\"seed\": " + std::to_string(options.seed) +
                              ", \"op_sample_every\": " +
                              std::to_string(Tracer::kOpSampleEvery) + ", \"runs\": [" +
                              runs_json + "]}";
    if (!write_chrome_trace(options.trace_path, views, other)) {
      std::fprintf(stderr, "dsmr_bench: cannot write %s\n", options.trace_path.c_str());
      return 2;
    }
  }
  if (totals.missing_metric) return 2;
  return totals.failed == 0 && totals.attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace dsmr::bench

int main(int argc, char** argv) { return dsmr::bench::bench_main(argc, argv); }
