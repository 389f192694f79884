// Shared helpers for the bench/ binaries.
//
// Two kinds of binary live here. `paper_tables` prints the paper's
// experiments from the deterministic simulator; its whole output is pinned
// by the `paper_tables` ctest against bench/paper_tables.txt. The gated
// benches (bench_overhead, bench_record_overhead, bench_detect_scale) time
// the detector and the backends with std::chrono and, with `--json`, write
// BENCH_<name>.json: one entry per measured configuration (name,
// string-valued params, ns/op, bytes/op), which tools/bench_gate.py
// compares against bench/baseline.json. End-to-end workloads live in
// dsmr_bench/ (dsmr_bench/README.md); docs/perf.md has the numbers.
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/rules.hpp"

#include "runtime/process.hpp"
#include "runtime/world.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
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
// Machine-readable output of the gated benches (--json).
// ---------------------------------------------------------------------------

/// One measured configuration: a name, string-valued params, and the two
/// headline metrics every perf claim in this repo reduces to.
struct JsonEntry {
  std::string name;
  std::vector<std::pair<std::string, std::string>> params;
  double ns_per_op;
  double bytes_per_op;
};

/// The entries the summary printers collect; run_bench writes them.
inline std::vector<JsonEntry> json_entries;

inline void json_add(std::string name,
                     std::vector<std::pair<std::string, std::string>> params,
                     double ns_per_op, double bytes_per_op = 0.0) {
  json_entries.push_back(JsonEntry{std::move(name), std::move(params), ns_per_op, bytes_per_op});
}

/// Writes BENCH_<bench_name>.json into the current directory.
inline void write_json(const std::string& bench_name) {
  const std::string path = "BENCH_" + bench_name + ".json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"%s\",\n  \"entries\": [", bench_name.c_str());
  for (std::size_t i = 0; i < json_entries.size(); ++i) {
    const JsonEntry& e = json_entries[i];
    std::fprintf(out, "%s\n    {\"name\": \"%s\", \"params\": {", i ? "," : "",
                 util::json_escape(e.name).c_str());
    for (std::size_t p = 0; p < e.params.size(); ++p) {
      std::fprintf(out, "%s\"%s\": \"%s\"", p ? ", " : "",
                   util::json_escape(e.params[p].first).c_str(),
                   util::json_escape(e.params[p].second).c_str());
    }
    std::fprintf(out, "}, \"ns_per_op\": %.4f, \"bytes_per_op\": %.4f}", e.ns_per_op,
                 e.bytes_per_op);
  }
  std::fprintf(out, "\n  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s (%zu entries)\n", path.c_str(), json_entries.size());
}

/// A gated bench's main: reads its one flag, `--json`, through util::Cli
/// (a bad flag prints an error and exits 2 before any work), prints the
/// bench's tables and, with `--json`, writes BENCH_<bench_name>.json.
inline int run_bench(int argc, char** argv, const char* bench_name, void (*print_summary)()) {
  util::Cli cli(argc, argv);
  const bool json = cli.get_flag("json");
  if (!cli.ok()) return 2;
  print_summary();
  if (json) write_json(bench_name);
  return 0;
}

}  // namespace dsmr::bench
