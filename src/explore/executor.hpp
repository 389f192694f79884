// Deterministic schedule executor for exploration: runs a FlatProgram one
// chosen transition at a time and synthesizes the record::Log event stream
// the threaded backend would have recorded under that interleaving.
//
// The executor holds ONLY scheduling state — per-rank step cursors,
// per-rank event counts (each log event ticks the folding clock exactly
// once, so a rank's clock component IS its event count), and the
// undelivered signals, FIFO per (destination, tag) mailbox. It never
// touches detector state: the caller folds the synthesized events through
// record::Folder, the single source of truth for verdicts. That keeps the
// explorer and the detector impossible to diverge by construction. `undo`
// takes back the last executed step exactly, so a depth-first search walks
// back up its path instead of re-running it from the start.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/rules.hpp"
#include "explore/model.hpp"
#include "record/log.hpp"

namespace dsmr::explore {

class Executor {
 public:
  /// The initial state: every rank at its first step, no mail.
  explicit Executor(const FlatProgram* program);

  int nprocs() const { return program_->nprocs; }
  bool rank_done(Rank rank) const;
  bool all_done() const;

  /// The next (not yet executed) step of `rank`; nullptr when done.
  const Step* next_step(Rank rank) const;

  /// True when `rank` has a next step that can execute now (a wait needs a
  /// queued matching signal).
  bool step_enabled(Rank rank) const;

  /// All enabled ranks, ascending.
  std::vector<Rank> enabled() const;

  /// The same set as a bitmask (bit r = rank r); needs nprocs <= 64.
  std::uint64_t enabled_mask() const;

  /// Ranks with unexecuted steps (enabled or blocked), ascending.
  std::vector<Rank> unfinished() const;

  /// Executes `rank`'s next step (must be enabled), appending its log
  /// events and returning the executed-transition record (with the dynamic
  /// signal/wait match fields filled in).
  ExecutedStep execute(Rank rank);

  /// Reverts `exec`, which must be the most recently executed step not yet
  /// undone (what execute() returned): its cursor, event count and log
  /// events, and the signal it queued (taken off the back) or the one it
  /// consumed (put back where it was). Afterwards every observable —
  /// scheduler_digest(), events() — is as it was before the execute.
  void undo(const ExecutedStep& exec);

  /// The dynamic view of `rank`'s next step, as if executed now — what
  /// execute() would return. Used by the sleep-set filter and the
  /// independence property test, which need dependence of *pending*
  /// transitions. For a blocked wait the match fields stay unset (-1/0),
  /// which can never equal a real send stamp (stamps are >= 1).
  ExecutedStep peek_executed(Rank rank) const;

  const std::vector<record::Event>& events() const { return events_; }
  std::size_t steps_executed() const { return steps_executed_; }

  /// Canonical dump of the scheduler state (cursors, counts, mailbox FIFO
  /// order). The fold keys undelivered signals by sender, so same-channel
  /// sends from different ranks commute in *fold* state — but their mailbox
  /// order decides which one a future wait consumes, so it is semantic
  /// state too. The property test compares scheduler_digest +
  /// record::replay_state_digest; together they capture the full model
  /// state.
  std::string scheduler_digest() const;

 private:
  const FlatProgram* program_;
  std::vector<std::size_t> cursor_;        ///< next step index per rank.
  std::vector<std::uint64_t> count_;       ///< events emitted per rank.
  /// An undelivered signal: its mailbox (dst, tag), sender and stamp.
  struct Mail {
    Rank dst = kInvalidRank;
    std::uint64_t tag = 0;
    Rank src = kInvalidRank;
    std::uint64_t stamp = 0;
  };
  /// The first undelivered signal in `rank`'s `tag` mailbox, or nullptr.
  const Mail* first_mail(Rank rank, std::uint64_t tag) const;

  /// Undelivered signals in send order, so a mailbox's FIFO order is its
  /// entries' order here. A consumed one is erased and its position goes
  /// on `taken_`, where undo finds it (waits are undone in LIFO order).
  std::vector<Mail> mail_;
  std::vector<std::size_t> taken_;
  std::vector<record::Event> events_;
  std::size_t steps_executed_ = 0;
};

/// Seals an explored interleaving as a replayable witness log: kThread
/// header (`mode`, and the threaded backend's one clock regime: lock
/// handoff and acked puts), the program's area table (fuzz::area_home,
/// fuzz::area_name), the synthesized events,
/// and `live` — the verdict signature the caller folded from those events
/// — in the live footer (the caller adds forensic metadata — program text,
/// schedule — before export).
record::Log make_witness_log(const FlatProgram& program,
                             const std::vector<record::Event>& events,
                             core::DetectorMode mode, record::VerdictSignature live);

}  // namespace dsmr::explore
