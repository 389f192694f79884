// Recorder: accumulates ordering events during a run and seals them into a
// record::Log with the live verdict footer.
//
// Two append disciplines, matching the two engines:
//  * `record`        — simulator backend. The sim engine is single-threaded
//                      and executes one atomic event at a time, so append
//                      order IS execution order. No synchronization.
//  * `record_thread` — threaded backend. Each rank thread appends to its own
//                      buffer under a Lamport stamp taken at the op's
//                      linearization point: one more than the larger of the
//                      rank's last stamp and the last stamp of the op's sync
//                      object (the shard stamp, user lock or signal that
//                      orders it against other ranks), written back to both.
//                      Stamps rise along program order and along every sync
//                      object's order, so `finish`, which merges the buffers
//                      by (stamp, rank), yields a linear extension of program
//                      order plus every mutex and mailbox order — all that
//                      replay_fold and the ReplayGate depend on. No counter
//                      is shared between ranks.
#pragma once

#include <algorithm>
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
  /// Returns the event's 1-based log index.
  std::uint64_t record(EventKind kind, std::uint64_t a, std::uint64_t b = 0,
                       std::uint64_t c = 0, std::uint64_t d = 0) {
    log_.events.push_back(Event{kind, a, b, c, d});
    return log_.events.size();
  }

  // --- threaded backend: per-rank buffers + Lamport stamps ---
  // Must be called at the point where the op's effect on shared state is
  // committed, inside the mutex that guards `sync` — the op's sync object
  // slot, 0-initialized by its owner; `rank` is the acting rank and becomes
  // field `a`. Returns the stamp, which is also left in `sync`.
  std::uint64_t record_thread(Rank rank, std::uint64_t& sync, EventKind kind,
                              std::uint64_t b = 0, std::uint64_t c = 0,
                              std::uint64_t d = 0) {
    RankBuffer& buffer = thread_buffers_[static_cast<std::size_t>(rank)];
    const std::uint64_t stamp = std::max(buffer.last, sync) + 1;
    buffer.last = stamp;
    sync = stamp;
    buffer.events.push_back(
        Stamped{stamp, Event{kind, static_cast<std::uint64_t>(rank), b, c, d}});
    return stamp;
  }

  /// An op ordered by program order only (a tick, a signal send).
  std::uint64_t record_thread(Rank rank, EventKind kind, std::uint64_t b = 0,
                              std::uint64_t c = 0, std::uint64_t d = 0) {
    std::uint64_t unshared = 0;
    return record_thread(rank, unshared, kind, b, c, d);
  }

  /// Seals the log: k-way merges the thread buffers (if any) into
  /// (stamp, rank) order and embeds the live verdict signature in the footer.
  void finish(const std::vector<core::RaceReport>& reports, bool completed,
              std::vector<Rank> stuck_ranks);

  bool finished() const { return finished_; }
  const LogHeader& header() const { return log_.header; }  ///< valid pre-finish.
  const Log& log() const;  ///< REQUIREs finish() was called.

 private:
  struct Stamped {
    std::uint64_t stamp = 0;
    Event event;
  };
  /// One rank's events, in stamp order (each stamp exceeds `last`). Each
  /// buffer gets its own cache line, so one rank's push never invalidates
  /// another rank's.
  struct alignas(64) RankBuffer {
    std::vector<Stamped> events;
    std::uint64_t last = 0;  ///< the rank's latest stamp.
  };

  void merge_thread_buffers();

  Log log_;
  AreaIndex areas_;
  std::vector<RankBuffer> thread_buffers_;
  bool finished_ = false;
};

}  // namespace dsmr::record
