#include "util/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "util/assert.hpp"

namespace dsmr::util {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  mean_ = (n1 * mean_ + n2 * other.mean_) / (n1 + n2);
  m2_ += other.m2_ + delta * delta * n1 * n2 / (n1 + n2);
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

LogHistogram::LogHistogram() : buckets_(64, 0) {}

void LogHistogram::add(std::uint64_t value) {
  const int bucket = value < 2 ? 0 : 64 - std::countl_zero(value) - 1;
  buckets_[static_cast<std::size_t>(bucket)] += 1;
  ++total_;
}

double LogHistogram::quantile(double q) const {
  DSMR_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0,1]");
  if (total_ == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(total_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen > target) {
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i));
      const double hi = std::ldexp(1.0, static_cast<int>(i) + 1);
      return (lo + hi) / 2.0;
    }
  }
  return std::ldexp(1.0, 63);
}

std::string LogHistogram::render(std::size_t max_rows) const {
  std::ostringstream out;
  std::size_t hi = buckets_.size();
  while (hi > 0 && buckets_[hi - 1] == 0) --hi;
  std::size_t lo = 0;
  while (lo < hi && buckets_[lo] == 0) ++lo;
  if (hi - lo > max_rows) lo = hi - max_rows;
  std::uint64_t peak = 1;
  for (std::size_t i = lo; i < hi; ++i) peak = std::max(peak, buckets_[i]);
  for (std::size_t i = lo; i < hi; ++i) {
    const auto bars = static_cast<std::size_t>(40.0 * static_cast<double>(buckets_[i]) /
                                               static_cast<double>(peak));
    out << "[2^" << i << ", 2^" << i + 1 << "): " << std::string(bars, '#') << " "
        << buckets_[i] << "\n";
  }
  return out.str();
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  DSMR_REQUIRE(cells.size() == headers_.size(), "row width must match header width");
  rows_.push_back(std::move(cells));
}

std::string Table::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    out << "|";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out << " " << cells[c] << std::string(widths[c] - cells[c].size(), ' ') << " |";
    }
    out << "\n";
  };
  emit_row(headers_);
  out << "|";
  for (const auto w : widths) out << std::string(w + 2, '-') << "|";
  out << "\n";
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

std::string Table::fmt(double v, int precision) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(precision);
  out << v;
  return out.str();
}

std::string Table::fmt_int(std::uint64_t v) { return std::to_string(v); }

}  // namespace dsmr::util
