// Reliable-delivery state machines for one ordered (src, dst) link:
// sequence numbers, selective acks, duplicate suppression, and in-order
// release to the protocol layer.
//
// These are pure per-link state machines with no timing in them — SimFabric
// owns the clocks (retransmit timers, ack latency, fault draws) and calls
// into these to decide *what* a wire arrival means. A future real-socket
// backend (ROADMAP item 1) reuses exactly this layer: the contract is
// at-least-once, possibly-reordered, possibly-duplicated wire delivery in,
// exactly-once in-order delivery out. The NIC protocol above
// (nic::Nic::resolve_pending asserts exactly-once responses, the detector
// assumes per-channel FIFO) is written against that guarantee.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "net/message.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"

namespace dsmr::net {

/// Sender side of one ordered link: assigns sequence numbers and tracks
/// every transmission until its (selective) ack arrives or the retry cap is
/// exhausted.
class SenderWindow {
 public:
  struct Pending {
    Message msg;
    int attempts = 1;           ///< transmissions so far.
    sim::Time first_sent = 0;   ///< virtual time of the original send.
  };

  std::uint64_t assign_seq() { return next_seq_++; }

  void register_send(Message msg, sim::Time now) {
    const std::uint64_t seq = msg.transport_seq;
    const auto [it, inserted] =
        pending_.emplace(seq, Pending{std::move(msg), 1, now});
    (void)it;
    DSMR_CHECK_MSG(inserted, "duplicate transport seq " << seq << " registered");
  }

  /// nullptr when the seq was already acked (or given up).
  Pending* find(std::uint64_t seq) {
    const auto it = pending_.find(seq);
    return it == pending_.end() ? nullptr : &it->second;
  }

  /// Selective ack: returns true when the seq was still pending.
  bool ack(std::uint64_t seq) { return pending_.erase(seq) > 0; }

  /// Retry cap exhausted: the message moves to the dead-letter list (the
  /// watchdog's "oldest unacked" evidence).
  void give_up(std::uint64_t seq) {
    const auto it = pending_.find(seq);
    DSMR_CHECK_MSG(it != pending_.end(), "give_up on non-pending seq " << seq);
    dead_letters_.push_back(std::move(it->second));
    pending_.erase(it);
  }

  const std::map<std::uint64_t, Pending>& pending() const { return pending_; }
  const std::vector<Pending>& dead_letters() const { return dead_letters_; }

 private:
  std::uint64_t next_seq_ = 0;
  std::map<std::uint64_t, Pending> pending_;
  std::vector<Pending> dead_letters_;
};

/// Receiver side of one ordered link: classifies each wire arrival and
/// buffers out-of-order messages until their predecessors land, restoring
/// the exactly-once in-order stream the FIFO model promises.
class ReceiverWindow {
 public:
  enum class Action {
    kDeliver,    ///< the next expected seq: deliver now, then drain ready().
    kBuffer,     ///< ahead of the stream: hold until the gap fills.
    kDuplicate,  ///< already delivered or already buffered: suppress (re-ack).
  };

  Action classify(std::uint64_t seq) const {
    if (seq < next_expected_ || buffered_.count(seq) > 0) return Action::kDuplicate;
    return seq == next_expected_ ? Action::kDeliver : Action::kBuffer;
  }

  /// For kDeliver: consume the in-order message, then repeatedly pop the
  /// now-ready buffered successors (in seq order).
  std::vector<Message> deliver(Message m) {
    DSMR_CHECK_MSG(m.transport_seq == next_expected_,
                   "deliver out of order: seq " << m.transport_seq << " expected "
                                                << next_expected_);
    std::vector<Message> ready;
    ready.push_back(std::move(m));
    ++next_expected_;
    for (auto it = buffered_.begin();
         it != buffered_.end() && it->first == next_expected_;
         it = buffered_.erase(it)) {
      ready.push_back(std::move(it->second));
      ++next_expected_;
    }
    return ready;
  }

  /// For kBuffer: hold an out-of-order arrival.
  void buffer(Message m) {
    DSMR_CHECK_MSG(m.transport_seq > next_expected_,
                   "buffer of in-order/past seq " << m.transport_seq);
    buffered_.emplace(m.transport_seq, std::move(m));
  }

  std::uint64_t next_expected() const { return next_expected_; }

 private:
  std::uint64_t next_expected_ = 0;
  std::map<std::uint64_t, Message> buffered_;
};

}  // namespace dsmr::net
