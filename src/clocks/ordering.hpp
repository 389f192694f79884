// The four possible outcomes of comparing two logical clocks.
#pragma once

namespace dsmr::clocks {

/// Result of comparing clocks `a` against `b` under Mattern's partial order.
/// `kConcurrent` is the paper's `a × b`: no causal order exists, which —
/// combined with a write — is exactly a race condition (Corollary 1).
enum class Ordering {
  kBefore,      ///< a < b: a happens-before b.
  kEqual,       ///< identical clocks.
  kAfter,       ///< a > b: b happens-before a.
  kConcurrent,  ///< a ∥ b: causally unordered.
};

constexpr const char* to_string(Ordering o) {
  switch (o) {
    case Ordering::kBefore: return "before";
    case Ordering::kEqual: return "equal";
    case Ordering::kAfter: return "after";
    case Ordering::kConcurrent: return "concurrent";
  }
  return "?";
}

}  // namespace dsmr::clocks
