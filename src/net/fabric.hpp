// Traffic accounting shared by both interconnects (net::SimFabric and
// net::ThreadFabric).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "net/message.hpp"

namespace dsmr::net {

/// Per-message-type traffic counters; the raw material for the
/// communication-overhead experiment (paper §V.A, CLAIM-V.A2 in
/// bench/bench_overhead.cpp).
struct TrafficCounters {
  /// Messages charged per type, indexed by MsgType; see messages().
  std::array<std::uint64_t, kMsgTypeCount> messages_by_type{};
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t data_path_messages = 0;  ///< the messages Fig. 2 counts.
  std::uint64_t payload_bytes = 0;       ///< user data only.
  std::uint64_t clock_bytes = 0;         ///< detection metadata on the wire.

  // Reliable-transport accounting (net/fault.hpp plans). Kept strictly
  // separate from the protocol counters above so the paper's overhead
  // experiment stays honest: a retransmitted put is still ONE data-path
  // message, its payload charged once — retry cost shows up only here.
  std::uint64_t retry_messages = 0;          ///< retransmission attempts.
  std::uint64_t retry_bytes = 0;             ///< wire bytes of those attempts.
  std::uint64_t acks_sent = 0;               ///< transport-level acks.
  std::uint64_t duplicates_suppressed = 0;   ///< receive-side dedup hits.
  std::uint64_t faults_injected = 0;         ///< drops/corruptions/blackout losses.
  std::uint64_t undeliverable_messages = 0;  ///< retry cap exhausted.

  std::uint64_t messages(MsgType type) const {
    return messages_by_type[static_cast<std::size_t>(type)];
  }

  /// Charges one message by its shape: the type, the user payload and the
  /// clock bytes it carries (Message::charged_clock_bytes — 0 when no clock
  /// is on the wire). The one counting rule; record() and the threaded
  /// backend, which builds no Message, both go through it.
  void charge(MsgType type, std::size_t payload, std::size_t clocks) {
    messages_by_type[static_cast<std::size_t>(type)] += 1;
    total_messages += 1;
    total_bytes += Message::kHeaderBytes + payload + clocks;
    payload_bytes += payload;
    clock_bytes += clocks;
    if (is_data_path(type)) data_path_messages += 1;
  }

  void record(const Message& m) { charge(m.type, m.data.size(), m.charged_clock_bytes()); }

  void reset() { *this = TrafficCounters{}; }

  /// Adds another counter set into this one. The fold half of per-thread
  /// sharding: concurrent senders each record into a private shard
  /// (single-writer, no atomics needed) and the owner folds the shards
  /// after the senders have quiesced (net::ThreadFabric does exactly this).
  void merge(const TrafficCounters& other) {
    for (std::size_t t = 0; t < kMsgTypeCount; ++t) {
      messages_by_type[t] += other.messages_by_type[t];
    }
    total_messages += other.total_messages;
    total_bytes += other.total_bytes;
    data_path_messages += other.data_path_messages;
    payload_bytes += other.payload_bytes;
    clock_bytes += other.clock_bytes;
    retry_messages += other.retry_messages;
    retry_bytes += other.retry_bytes;
    acks_sent += other.acks_sent;
    duplicates_suppressed += other.duplicates_suppressed;
    faults_injected += other.faults_injected;
    undeliverable_messages += other.undeliverable_messages;
  }

  bool operator==(const TrafficCounters&) const = default;
};

}  // namespace dsmr::net
