// The real-threads interconnect: signal mailboxes plus sharded traffic
// accounting for the ThreadWorld backend (runtime/thread_world.hpp).
//
// Where SimFabric models a wire with virtual latency, ThreadFabric IS the
// shared memory of one process: ranks are OS threads, a "message" is a
// mutex-protected mailbox append, and delivery order is whatever the
// machine's scheduler produces. Consequently it has no send() returning a
// virtual delivery time, as SimFabric does — only the two services the
// threaded runtime needs:
//
//  * tagged signal delivery (signal / wait_signal with a deadline), the
//    substrate for point-to-point sync edges and dissemination barriers;
//  * traffic accounting equivalent to what the kHomeSide transport would
//    put on a real wire, charged by message shape (TrafficCounters::charge:
//    type, payload bytes, clock bytes — no Message is built) into per-rank
//    single-writer shards and folded on demand (TrafficCounters::merge) —
//    concurrent senders never contend on, or race on, a shared ledger.
//
// Every blocking wait takes an absolute deadline: a ThreadWorld run can
// always join all of its threads, so an orphaned wait becomes a reported
// stuck rank rather than a leaked thread.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "clocks/vector_clock.hpp"
#include "net/fabric.hpp"
#include "util/types.hpp"

namespace dsmr::net {

/// One delivered signal: the sender's clock (a receive event merges it)
/// plus an opaque payload, mirroring the sim's kSignal message.
struct ThreadSignal {
  Rank src = kInvalidRank;
  clocks::VectorClock clock;
  std::vector<std::byte> payload;
  /// The send's record stamp (record::Recorder::record_thread; 0 when not
  /// recording): the matching wait stamps after it.
  std::uint64_t stamp = 0;
};

class ThreadFabric {
 public:
  explicit ThreadFabric(int nprocs);

  int nprocs() const { return static_cast<int>(mailboxes_.size()); }

  /// Appends a signal to `to`'s mailbox under `tag` and wakes waiters.
  void signal(Rank to, std::uint64_t tag, ThreadSignal message);

  /// Pops the oldest signal for (`self`, `tag`), blocking until one arrives
  /// or `deadline` passes; nullopt on timeout (the caller reports a stuck
  /// rank). FIFO per (sender, tag) follows from mailbox append order.
  std::optional<ThreadSignal> wait_signal(
      Rank self, std::uint64_t tag,
      std::chrono::steady_clock::time_point deadline);

  /// Like wait_signal, but pops the oldest signal from a *specific* sender,
  /// skipping queued signals from other ranks. Replay needs this: the log
  /// pins which sender's signal each wait consumed, and the live schedule
  /// may have raced several same-tag senders into the mailbox.
  std::optional<ThreadSignal> wait_signal_from(
      Rank self, std::uint64_t tag, Rank src,
      std::chrono::steady_clock::time_point deadline);

  /// The calling rank's private counter shard. Single-writer by contract:
  /// only rank `self`'s thread may record into it while the run is live.
  TrafficCounters& shard(Rank self) { return shards_[static_cast<std::size_t>(self)].counters; }

  /// Folds all shards into one ledger. Call only when the sender threads
  /// have quiesced (after ThreadWorld::run joins them).
  TrafficCounters fold() const;

 private:
  struct Mailbox {
    std::mutex mutex;
    std::condition_variable ready;
    std::map<std::uint64_t, std::deque<ThreadSignal>> by_tag;
  };
  /// Cache-line padding: shards are written concurrently by their owner
  /// threads; sharing a line would make the "no contention" claim false in
  /// the way that matters (false sharing), even though it stays race-free.
  struct alignas(64) Shard {
    TrafficCounters counters;
  };

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<Shard> shards_;
};

}  // namespace dsmr::net
