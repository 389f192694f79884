// Online statistics and fixed-layout histograms for benchmark reporting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dsmr::util {

/// Welford's online algorithm: numerically stable running mean/variance
/// plus min/max, without storing samples.
class OnlineStats {
 public:
  void add(double x);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double variance() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Merges another accumulator into this one (parallel Welford merge).
  void merge(const OnlineStats& other);

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Power-of-two bucketed histogram for latency-style distributions.
/// Bucket i holds samples in [2^i, 2^(i+1)); bucket 0 holds [0, 2).
class LogHistogram {
 public:
  LogHistogram();

  void add(std::uint64_t value);
  std::uint64_t count() const { return total_; }

  /// Approximate quantile (q in [0,1]) using the geometric midpoint of the
  /// bucket containing the q-th sample.
  double quantile(double q) const;

  /// Multi-line textual rendering used by the bench binaries.
  std::string render(std::size_t max_rows = 16) const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
};

/// Fixed-width column table printer: all bench binaries emit their
/// paper-style rows through this, so outputs stay visually consistent.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  std::string render() const;

  static std::string fmt(double v, int precision = 2);
  static std::string fmt_int(std::uint64_t v);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dsmr::util
