// Spans and latency histograms the benchmark records around its own calls
// into each dsmr module. Nothing here reaches inside the library: a span
// covers one public call (or a phase made of them) as seen by the caller.
//
// Storage is per thread slot (slot 0 = the main thread, slot 1 + i = the
// i-th worker thread the benchmark starts or the i-th rank thread of a
// ThreadWorld). Each slot has a single writer while it runs and is read
// only after that thread has been joined, so recording takes no locks.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace dsmr::bench {

/// Nanoseconds on the steady clock since the first call in this process.
std::int64_t now_ns();

struct Span {
  const char* name = "";     ///< a string literal: "<layer>.<call>".
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;      ///< unique within its Tracer; never 0.
  std::uint64_t parent = 0;  ///< enclosing span's id, 0 for a root span.
  std::uint64_t req = 0;     ///< request id: rep, world or program index.
};

/// Log-linear histogram of nanosecond durations: 16 sub-buckets per power
/// of two, so a percentile read back is within ~3% of the true value.
class Histogram {
 public:
  void add(std::uint64_t ns);
  void merge(const Histogram& other);
  std::uint64_t count() const { return count_; }
  /// Value at quantile q in [0, 1] (bucket midpoint); 0 when empty.
  double quantile(double q) const;

 private:
  static constexpr int kSubBits = 4;
  static constexpr int kBuckets = 64 << kSubBits;
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

/// The user-level operations whose every call goes into a histogram.
enum class OpKind : int { kPut, kGet, kLock, kUnlock, kSignal, kWait };
inline constexpr int kOpKinds = 6;

struct SlotTrace {
  std::vector<Span> spans;
  std::array<Histogram, kOpKinds> ops;
  std::uint64_t next_id = 0;
  std::size_t op_spans = 0;  ///< sampled op spans kept.
};

class Tracer {
 public:
  static constexpr int kSlots = 5;  ///< main + four rank or probe threads.
  /// One op span in this many is kept; every op still enters a histogram.
  static constexpr std::uint64_t kOpSampleEvery = 64;
  /// Kept op spans per slot, so a long run's trace file stays small.
  static constexpr std::size_t kOpSpanCap = 16384;

  /// `pid` tells runs apart in the Chrome trace; `label` names the run.
  Tracer(int pid, std::string label);

  int pid() const { return pid_; }
  const std::string& label() const { return label_; }

  std::uint64_t new_id(int slot);
  void add(int slot, const Span& span) { slots_[slot].spans.push_back(span); }

  /// Times one op: always into the histogram, and 1 in kOpSampleEvery
  /// (by `index`) as a span.
  void op(int slot, OpKind kind, std::int64_t start_ns, std::int64_t end_ns,
          std::uint64_t index, std::uint64_t parent, std::uint64_t req);

  const SlotTrace& slot(int i) const { return slots_[i]; }
  /// All slots' histograms of `kind`, merged.
  Histogram merged(OpKind kind) const;
  std::uint64_t op_hist_count() const;

 private:
  int pid_;
  std::string label_;
  std::array<SlotTrace, kSlots> slots_;
};

/// RAII span: opens at construction, records at destruction. A null
/// tracer makes it free apart from two clock reads.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, int slot, const char* name, std::uint64_t parent,
             std::uint64_t req);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }
  /// Nanoseconds since the span opened.
  std::int64_t elapsed_ns() const { return now_ns() - span_.start_ns; }

 private:
  Tracer* tracer_;
  int slot_;
  Span span_;
};

/// Writes every tracer's spans as one Chrome-trace JSON file (pid = the
/// tracer's pid, tid = slot). `other` is a JSON object literal stored
/// under "otherData". Returns false when the file cannot be written.
bool write_chrome_trace(const std::string& path, const std::vector<const Tracer*>& tracers,
                        const std::string& other);

/// Per span name: count, total and self milliseconds, where self time is
/// a span minus the part of its interval its children cover. One line
/// per name, for a human reading stderr.
std::string self_time_table(const Tracer& tracer);

}  // namespace dsmr::bench
