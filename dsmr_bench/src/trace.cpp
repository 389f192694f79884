#include "trace.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace dsmr::bench {

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

void Histogram::add(std::uint64_t ns) {
  std::size_t index = ns;
  if (ns >= (1u << kSubBits)) {
    const int msb = 63 - std::countl_zero(ns);
    index = (static_cast<std::size_t>(msb - kSubBits + 1) << kSubBits) +
            ((ns >> (msb - kSubBits)) & ((1u << kSubBits) - 1));
  }
  ++buckets_[index];
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(q * static_cast<double>(count_) + 0.999999));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen < target) continue;
    if (i < (1 << kSubBits)) return i;
    const int msb = (i >> kSubBits) - 1 + kSubBits;
    const double width = std::ldexp(1.0, msb - kSubBits);
    const double low = static_cast<double>((1 << kSubBits) + (i & ((1 << kSubBits) - 1))) * width;
    return low + width / 2;
  }
  return 0;
}

namespace {

const char* op_span_name(OpKind kind) {
  switch (kind) {
    case OpKind::kPut: return "runtime.put";
    case OpKind::kGet: return "runtime.get";
    case OpKind::kLock: return "runtime.lock";
    case OpKind::kUnlock: return "runtime.unlock";
    case OpKind::kSignal: return "runtime.signal";
    case OpKind::kWait: return "runtime.wait";
  }
  return "runtime.op";
}

}  // namespace

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer::Tracer(int pid, std::string label) : pid_(pid), label_(std::move(label)) {}

std::uint64_t Tracer::new_id(int slot) {
  return (static_cast<std::uint64_t>(slot + 1) << 48) | ++slots_[slot].next_id;
}

void Tracer::op(int slot, OpKind kind, std::int64_t start_ns, std::int64_t end_ns,
                std::uint64_t index, std::uint64_t parent, std::uint64_t req) {
  SlotTrace& trace = slots_[slot];
  trace.ops[static_cast<int>(kind)].add(static_cast<std::uint64_t>(end_ns - start_ns));
  if (index % kOpSampleEvery != 0 || trace.op_spans >= kOpSpanCap) return;
  ++trace.op_spans;
  trace.spans.push_back(Span{op_span_name(kind), start_ns, end_ns, new_id(slot), parent, req});
}

Histogram Tracer::merged(OpKind kind) const {
  Histogram out;
  for (const SlotTrace& trace : slots_) out.merge(trace.ops[static_cast<int>(kind)]);
  return out;
}

std::uint64_t Tracer::op_hist_count() const {
  std::uint64_t total = 0;
  for (int k = 0; k < kOpKinds; ++k) total += merged(static_cast<OpKind>(k)).count();
  return total;
}

ScopedSpan::ScopedSpan(Tracer* tracer, int slot, const char* name, std::uint64_t parent,
                       std::uint64_t req)
    : tracer_(tracer), slot_(slot) {
  span_.name = name;
  span_.parent = parent;
  span_.req = req;
  if (tracer_ != nullptr) span_.id = tracer_->new_id(slot_);
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = now_ns();
  tracer_->add(slot_, span_);
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

namespace {

/// "runtime.put" -> "runtime": the layer a span belongs to.
std::string layer_of(const char* name) {
  const std::string full(name);
  return full.substr(0, full.find('.'));
}

}  // namespace

bool write_chrome_trace(const std::string& path, const std::vector<const Tracer*>& tracers,
                        const std::string& other) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\": \"ns\", \"otherData\": %s,\n\"traceEvents\": [",
               other.c_str());
  bool first = true;
  for (const Tracer* tracer : tracers) {
    std::fprintf(out, "%s\n{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, "
                      "\"args\": {\"name\": \"%s\"}}",
                 first ? "" : ",", tracer->pid(), tracer->label().c_str());
    first = false;
    for (int slot = 0; slot < Tracer::kSlots; ++slot) {
      for (const Span& span : tracer->slot(slot).spans) {
        std::fprintf(out,
                     ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": %d, "
                     "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %" PRIu64
                     ", \"parent\": %" PRIu64 ", \"req\": %" PRIu64
                     ", \"start_ns\": %" PRId64 ", \"end_ns\": %" PRId64 "}}",
                     span.name, layer_of(span.name).c_str(), tracer->pid(), slot,
                     static_cast<double>(span.start_ns) / 1e3,
                     static_cast<double>(span.end_ns - span.start_ns) / 1e3, span.id,
                     span.parent, span.req, span.start_ns, span.end_ns);
      }
    }
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

std::string self_time_table(const Tracer& tracer) {
  std::unordered_map<std::uint64_t, const Span*> by_id;
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (int slot = 0; slot < Tracer::kSlots; ++slot) {
    for (const Span& span : tracer.slot(slot).spans) {
      by_id[span.id] = &span;
      if (span.parent != 0) children[span.parent].push_back(&span);
    }
  }
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string, Totals> by_name;
  for (const auto& [id, span] : by_id) {
    std::int64_t covered = 0;
    if (auto it = children.find(id); it != children.end()) {
      std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
      for (const Span* child : it->second) {
        intervals.emplace_back(std::max(child->start_ns, span->start_ns),
                               std::min(child->end_ns, span->end_ns));
      }
      std::sort(intervals.begin(), intervals.end());
      std::int64_t cursor = span->start_ns;
      for (const auto& [lo, hi] : intervals) {
        const std::int64_t from = std::max(lo, cursor);
        if (hi > from) {
          covered += hi - from;
          cursor = hi;
        }
      }
    }
    Totals& totals = by_name[span->name];
    ++totals.count;
    totals.total_ns += span->end_ns - span->start_ns;
    totals.self_ns += span->end_ns - span->start_ns - covered;
  }
  std::string out;
  char line[200];
  std::snprintf(line, sizeof line, "# self time, %s (op spans sampled 1 in %" PRIu64 ")\n",
                tracer.label().c_str(), Tracer::kOpSampleEvery);
  out += line;
  for (const auto& [name, totals] : by_name) {
    std::snprintf(line, sizeof line, "#   %-28s n=%-9" PRIu64 " total=%10.3f ms  self=%10.3f ms\n",
                  name.c_str(), totals.count, static_cast<double>(totals.total_ns) / 1e6,
                  static_cast<double>(totals.self_ns) / 1e6);
    out += line;
  }
  return out;
}

}  // namespace dsmr::bench
