// Recorder: accumulates ordering events during a run and seals them into a
// record::Log with the live verdict footer.
//
// Two append disciplines, matching the two engines:
//  * `record`        — simulator backend. The sim engine is single-threaded
//                      and executes one atomic event at a time, so append
//                      order IS execution order. No synchronization.
//  * `record_thread` — threaded backend. Each rank thread appends to its own
//                      buffer; a global atomic sequence number stamped at the
//                      op's linearization point (inside the shard / user-lock
//                      mutex) defines the total order. `finish` merges the
//                      buffers by stamp.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/race_report.hpp"
#include "record/log.hpp"
#include "util/types.hpp"

namespace dsmr::record {

/// Canonical (sorted, counted) signature of a run's verdicts. Used for the
/// log footer, for replay comparison, and by the differential harnesses.
VerdictSignature make_signature(const AreaIndex& areas,
                                const std::vector<core::RaceReport>& reports,
                                bool completed, std::vector<Rank> stuck_ranks);

class Recorder {
 public:
  Recorder(std::uint32_t nprocs, Backend backend, core::DetectorMode mode,
           bool lock_clock_handoff, bool acked_puts);

  /// Registers the next allocated area; allocation order defines the flat
  /// index space the events speak. Called before the run starts.
  void register_area(Rank home, std::uint32_t id, std::uint64_t size,
                     std::string name);
  std::uint64_t area_index(Rank home, std::uint32_t id) const {
    return areas_.at(home, id);
  }
  const AreaIndex& areas() const { return areas_; }

  /// Attaches provenance (program text, seeds, fault plan...). Insertion
  /// order is preserved on the wire.
  void set_metadata(std::string key, std::string value);

  // --- simulator backend: append in engine execution order ---
  void record(EventKind kind, std::uint64_t a, std::uint64_t b = 0,
              std::uint64_t c = 0, std::uint64_t d = 0) {
    log_.events.push_back(Event{kind, a, b, c, d});
  }

  // --- threaded backend: per-rank buffers + atomic linearization stamp ---
  // Must be called at the point where the op's effect on shared state is
  // committed (inside the protecting mutex); `rank` is the acting rank and
  // becomes field `a`.
  void record_thread(Rank rank, EventKind kind, std::uint64_t b = 0,
                     std::uint64_t c = 0, std::uint64_t d = 0) {
    const std::uint64_t stamp = seq_.value.fetch_add(1, std::memory_order_seq_cst);
    thread_buffers_[static_cast<std::size_t>(rank)].events.push_back(
        Stamped{stamp, Event{kind, static_cast<std::uint64_t>(rank), b, c, d}});
  }

  /// Seals the log: k-way merges the thread buffers (if any) into global
  /// stamp order and embeds the live verdict signature in the footer.
  void finish(const std::vector<core::RaceReport>& reports, bool completed,
              std::vector<Rank> stuck_ranks);

  bool finished() const { return finished_; }
  const LogHeader& header() const { return log_.header; }  ///< valid pre-finish.
  const Log& log() const;  ///< REQUIREs finish() was called.

 private:
  struct Stamped {
    std::uint64_t seq = 0;
    Event event;
  };
  /// One rank's events, in stamp order (a thread's fetch_add results only
  /// increase). Each header gets its own cache line, so one rank's push
  /// never invalidates another rank's.
  struct alignas(64) RankBuffer {
    std::vector<Stamped> events;
  };
  /// The global sequence on a line of its own: every stamp writes it, and
  /// every stamp reads the `thread_buffers_` header.
  struct alignas(64) Sequence {
    std::atomic<std::uint64_t> value{0};
  };

  void merge_thread_buffers();

  Log log_;
  AreaIndex areas_;
  std::vector<RankBuffer> thread_buffers_;
  Sequence seq_;
  bool finished_ = false;
};

}  // namespace dsmr::record
