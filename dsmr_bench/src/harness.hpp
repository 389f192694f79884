// What every workload shares: the pass description it reads, the metrics
// and checks it reports, the rep loop that alternates configurations, and
// the statistics the metrics are reduced with.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace dsmr::bench {

/// One pass of one workload: its inputs and everything it reports.
struct Run {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;       ///< measurement budget of this pass.
  bool smoke = false;        ///< tiny sizes, one timed round.
  Tracer* tracer = nullptr;  ///< set for the traced pass only.

  std::vector<std::pair<std::string, std::uint64_t>> sizes;  ///< echoed.
  std::map<std::string, double> metrics;
  /// Ops the traced reps executed; the trace's op histograms must hold
  /// exactly this many samples.
  std::uint64_t traced_ops = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few failed checks.
  std::vector<std::string> notes;     ///< printed as comment lines.

  bool traced() const { return tracer != nullptr; }
  /// Picks the full or the smoke value of a size and records it for the
  /// output header.
  std::uint64_t size(const char* name, std::uint64_t full, std::uint64_t smoke_value);
  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value) { metrics[name] = value; }
};

/// One timed rep: wall seconds of the measured work, seconds of set-up
/// before it, and how many units of work (ops, worlds, programs) it did.
struct Rep {
  double wall_s = 0;
  double setup_s = 0;
  double work = 0;
};

/// Runs `configs` configurations round-robin, reversing the order every
/// other round: first one untimed warm-up round (`timed` false: the rep
/// must not record into the tracer), then timed rounds until `run.seconds`
/// have passed and every configuration has at least three reps (exactly
/// one timed round in smoke mode). result[c] holds config c's timed reps;
/// result[c][i] and result[d][i] ran in the same round. Notes the round
/// count in `run`.
std::vector<std::vector<Rep>> alternate(Run& run, int configs,
                                        const std::function<Rep(int config, bool timed)>& rep);

double median(std::vector<double> values);
/// Linearly interpolated quantile, q in [0, 1]; 0 for an empty input.
double quantile(std::vector<double> values, double q);

/// Median of work / wall over `reps`.
double median_rate(const std::vector<Rep>& reps);
/// Median over rounds of a[i].wall_s / b[i].wall_s.
double paired_ratio(const std::vector<Rep>& a, const std::vector<Rep>& b);
/// Median set-up seconds over `reps`.
double median_setup(const std::vector<Rep>& reps);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// The seed of generated stream `stream` under `--seed seed`. Every input
/// the benchmark generates (op arrays, area picks, world and program
/// seeds) draws from one of these streams.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

double seconds_between(std::int64_t start_ns, std::int64_t end_ns);

/// "<prefix><n>", built by appending (GCC 12 misreports `"x" + std::to_string(n)`
/// under -Wrestrict).
std::string numbered(const char* prefix, std::uint64_t n);

}  // namespace dsmr::bench
