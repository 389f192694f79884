// Shared helpers for the benchmark binaries.
//
// Every bench prints (a) a paper-style table of the simulated metrics it
// reproduces — virtual latencies, message counts, detection quality — and
// (b) google-benchmark wall-clock timings of the simulator itself. The
// table is the artifact the numbers in docs/perf.md come from (end-to-end
// workloads live in dsmr_bench/, see dsmr_bench/README.md); the timings
// document the tool's own cost.
// With `--json`, each bench additionally writes BENCH_<name>.json — a
// machine-readable record (name, params, ns/op, bytes/op per entry) so the
// performance trajectory stays comparable across PRs.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/rules.hpp"

#include "runtime/process.hpp"
#include "runtime/world.hpp"
#include "util/stats.hpp"

namespace dsmr::bench {

inline runtime::WorldConfig world_config(int nprocs, core::DetectorMode mode,
                                         core::Transport transport,
                                         std::uint64_t seed = 1) {
  runtime::WorldConfig config;
  config.nprocs = nprocs;
  config.mode = mode;
  config.transport = transport;
  config.seed = seed;
  return config;
}

inline const char* mode_name(core::DetectorMode mode) { return core::to_string(mode); }
inline const char* transport_name(core::Transport t) { return core::to_string(t); }

/// Emits a titled table to stdout.
inline void print_table(const std::string& title, const util::Table& table) {
  std::printf("\n%s\n%s", title.c_str(), table.render().c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Machine-readable output (--json).
// ---------------------------------------------------------------------------

/// Collects benchmark entries and, when enabled, writes BENCH_<name>.json.
/// One entry = one measured configuration: a name, string-valued params,
/// and the two headline metrics every perf claim in this repo reduces to.
class JsonReport {
 public:
  static JsonReport& instance() {
    static JsonReport report;
    return report;
  }

  void configure(std::string bench_name, bool enabled) {
    bench_name_ = std::move(bench_name);
    enabled_ = enabled;
  }

  bool enabled() const { return enabled_; }

  void add(std::string name, std::vector<std::pair<std::string, std::string>> params,
           double ns_per_op, double bytes_per_op = 0.0) {
    entries_.push_back(Entry{std::move(name), std::move(params), ns_per_op, bytes_per_op});
  }

  /// Writes BENCH_<name>.json into the current directory. No-op unless
  /// --json was passed.
  void write() const {
    if (!enabled_) return;
    const std::string path = "BENCH_" + bench_name_ + ".json";
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(out, "{\n  \"bench\": \"%s\",\n  \"entries\": [", bench_name_.c_str());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(out, "%s\n    {\"name\": \"%s\", \"params\": {", i ? "," : "",
                   escaped(e.name).c_str());
      for (std::size_t p = 0; p < e.params.size(); ++p) {
        std::fprintf(out, "%s\"%s\": \"%s\"", p ? ", " : "",
                     escaped(e.params[p].first).c_str(),
                     escaped(e.params[p].second).c_str());
      }
      std::fprintf(out, "}, \"ns_per_op\": %.4f, \"bytes_per_op\": %.4f}", e.ns_per_op,
                   e.bytes_per_op);
    }
    std::fprintf(out, "\n  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s (%zu entries)\n", path.c_str(), entries_.size());
  }

 private:
  struct Entry {
    std::string name;
    std::vector<std::pair<std::string, std::string>> params;
    double ns_per_op;
    double bytes_per_op;
  };

  static std::string escaped(const std::string& in) {
    std::string out;
    out.reserve(in.size());
    for (const char c : in) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out.push_back(c);
    }
    return out;
  }

  std::string bench_name_;
  bool enabled_ = false;
  std::vector<Entry> entries_;
};

/// Strips `--json` from argv (google-benchmark rejects unknown flags) and
/// configures the process-wide JsonReport. Call before benchmark::Initialize.
inline void init_json(int* argc, char** argv, const char* bench_name) {
  bool enabled = false;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::string_view(argv[i]) == "--json") {
      enabled = true;
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  JsonReport::instance().configure(bench_name, enabled);
}

/// Shorthand used by the summary printers.
inline void json_add(std::string name,
                     std::vector<std::pair<std::string, std::string>> params,
                     double ns_per_op, double bytes_per_op = 0.0) {
  JsonReport::instance().add(std::move(name), std::move(params), ns_per_op, bytes_per_op);
}

inline void write_json() { JsonReport::instance().write(); }

// ---------------------------------------------------------------------------
// Detector-kernel cost (the per-access check itself, no simulator around it).
// ---------------------------------------------------------------------------

struct DetectorCost {
  double fast_ns = 0;    ///< production check_access (epoch fast path).
  double oracle_ns = 0;  ///< full-vector-clock oracle.
  double speedup() const { return fast_ns > 0 ? oracle_ns / fast_ns : 0; }
};

/// The fully-ordered steady state the epoch representation optimizes: the
/// stored state is the home NIC's post-event clock, and the accessor has
/// merged it (acked put / lock handoff) before ticking for each access.
/// One fixture definition shared by the chrono summary and the
/// google-benchmark registration, so both measure the same kernel.
struct OrderedCheckFixture {
  Rank home;
  Rank accessor;
  clocks::VectorClock stored;
  clocks::Epoch epoch;
  clocks::VectorClock issue;

  explicit OrderedCheckFixture(std::size_t nprocs)
      : home(0), accessor(static_cast<Rank>(nprocs - 1)), stored(nprocs) {
    for (std::size_t i = 0; i < nprocs; ++i) stored[i] = 2 * i + 3;
    stored.tick(home);
    epoch = clocks::Epoch::of_event(home, stored);
    issue = stored;
    issue.tick(accessor);
  }

  /// One per-access check: tick (models the workload and keeps the inputs
  /// loop-variant so the inlined fast path cannot be hoisted), then decide.
  core::Verdict check(bool oracle) {
    issue.tick(accessor);
    const core::StoredClocks with_epoch{stored, stored, home, home, epoch, epoch};
    return oracle ? core::check_access_oracle(core::DetectorMode::kDualClock,
                                              core::AccessKind::kWrite, accessor,
                                              issue, with_epoch)
                  : core::check_access(core::DetectorMode::kDualClock,
                                       core::AccessKind::kWrite, accessor, issue,
                                       with_epoch);
  }
};

/// Wall-clock ns per check_access call on the fully-ordered workload. The
/// oracle pays two O(n) clock walks per check; the epoch path two integer
/// compares.
inline DetectorCost measure_detector_cost(std::size_t nprocs,
                                          std::uint64_t iters = 2'000'000) {
  OrderedCheckFixture fixture(nprocs);
  const auto run = [&](bool oracle) {
    std::uint64_t races = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
      races += fixture.check(oracle).race ? 1 : 0;
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    DSMR_CHECK_MSG(races == 0, "ordered workload must not race");
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
           static_cast<double>(iters);
  };

  DetectorCost cost;
  cost.oracle_ns = run(/*oracle=*/true);
  cost.fast_ns = run(/*oracle=*/false);
  return cost;
}

/// Prints the detector-kernel table (and emits JSON entries) for the ≥5x
/// fast-path acceptance criterion. Shared by bench_overhead and
/// bench_throughput.
inline void print_detector_cost_summary() {
  util::Table table({"n procs", "oracle ns/check", "epoch ns/check", "speedup"});
  for (const std::size_t n : {4u, 16u, 64u, 256u}) {
    const DetectorCost cost = measure_detector_cost(n);
    table.add_row({util::Table::fmt_int(n), util::Table::fmt(cost.oracle_ns, 2),
                   util::Table::fmt(cost.fast_ns, 2),
                   util::Table::fmt(cost.speedup(), 1)});
    json_add("detector_check_ordered",
             {{"n", std::to_string(n)}, {"path", "epoch"}, {"mode", "dual-clock"}},
             cost.fast_ns);
    json_add("detector_check_ordered",
             {{"n", std::to_string(n)}, {"path", "oracle"}, {"mode", "dual-clock"}},
             cost.oracle_ns);
  }
  print_table(
      "=== Detector kernel: per-access check cost on fully-ordered workloads ===\n"
      "(epoch fast path vs full-vector-clock oracle; dual-clock writes)",
      table);
}

}  // namespace dsmr::bench
