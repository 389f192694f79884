#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>

#include "util/rng.hpp"

namespace dsmr::bench {

namespace {
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kKeptFailures = 20;
}  // namespace

std::uint64_t Run::size(const char* name, std::uint64_t full, std::uint64_t smoke_value) {
  const std::uint64_t value = smoke ? smoke_value : full;
  sizes.emplace_back(name, value);
  return value;
}

void Run::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < kKeptFailures) failures.push_back(what);
}

std::vector<std::vector<Rep>> alternate(Run& run, int configs,
                                        const std::function<Rep(int config, bool timed)>& rep) {
  for (int c = 0; c < configs; ++c) rep(c, false);
  std::vector<std::vector<Rep>> result(static_cast<std::size_t>(configs));
  const std::int64_t start = now_ns();
  for (int round = 0;; ++round) {
    for (int k = 0; k < configs; ++k) {
      const int c = round % 2 == 0 ? k : configs - 1 - k;
      result[static_cast<std::size_t>(c)].push_back(rep(c, true));
    }
    if (run.smoke) break;
    if (result[0].size() >= kMinReps && seconds_between(start, now_ns()) >= run.seconds) break;
  }
  run.notes.push_back(run.workload + (run.traced() ? " traced" : " untraced") + " pass: " +
                      std::to_string(result[0].size()) + " timed round(s) of " +
                      std::to_string(configs) + " config(s) in " +
                      std::to_string(seconds_between(start, now_ns())) + " s");
  return result;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median_rate(const std::vector<Rep>& reps) {
  std::vector<double> rates;
  for (const Rep& r : reps) rates.push_back(r.work / r.wall_s);
  return median(std::move(rates));
}

double paired_ratio(const std::vector<Rep>& a, const std::vector<Rep>& b) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    ratios.push_back(a[i].wall_s / b[i].wall_s);
  }
  return median(std::move(ratios));
}

double median_setup(const std::vector<Rep>& reps) {
  std::vector<double> setups;
  for (const Rep& r : reps) setups.push_back(r.setup_s);
  return median(std::move(setups));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  util::SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + stream);
  mix.next();
  return mix.next();
}

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

std::string numbered(const char* prefix, std::uint64_t n) {
  std::string name = prefix;
  name += std::to_string(n);
  return name;
}

}  // namespace dsmr::bench
