// The per-process communication-library API — the layer the paper proposes
// instrumenting ("in the communication library of a parallel language, for
// automatic detection of conflictual accesses", §V.B).
//
// Every operation is a blocking coroutine: `co_await p.put(...)` returns
// when the one-sided operation has completed (including the detection steps
// of Algorithms 1-2, which run inside the NIC layer). Race conditions are
// *signaled* through the World's RaceLog; they never abort execution
// (§IV.D).
#pragma once

#include <cstring>
#include <span>
#include <vector>

#include "clocks/vector_clock.hpp"
#include "mem/global_address.hpp"
#include "nic/nic.hpp"
#include "sim/future.hpp"
#include "sim/task.hpp"

namespace dsmr::runtime {

class World;

class Process {
 public:
  Process(World& world, Rank rank);

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  Rank rank() const { return rank_; }
  int nprocs() const;
  sim::Time now() const;
  sim::Engine& engine();
  World& world() { return world_; }

  /// The process's current vector clock (the own row of its clock matrix).
  const clocks::VectorClock& clock() const;

  // ---- one-sided data operations ----

  /// Writes `src` into the public memory at `dst` (Algorithm 1).
  sim::Future<void> put(mem::GlobalAddress dst, std::span<const std::byte> src);

  /// Reads `len` bytes from the public memory at `src` (Algorithm 2) into
  /// the process's private memory (the returned buffer).
  sim::Future<std::vector<std::byte>> get(mem::GlobalAddress src, std::uint32_t len);

  /// Typed convenience wrappers for trivially copyable values.
  template <typename T>
  sim::Future<void> put_value(mem::GlobalAddress dst, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> bytes(sizeof(T));
    std::memcpy(bytes.data(), &value, sizeof(T));
    return put_bytes(dst, std::move(bytes));
  }

  template <typename T>
  sim::Future<T> get_value(mem::GlobalAddress src) {
    return typed_get<T>(src);
  }

  /// Copies `len` bytes within the global address space (paper §III.B:
  /// "communications can also be done within the public space") — an
  /// instrumented get followed by an instrumented put.
  sim::Future<void> copy(mem::GlobalAddress src, mem::GlobalAddress dst,
                         std::uint32_t len);

  // ---- NIC-provided area locks (paper §III.A) ----

  /// Acquires the lock of the area at `addr`; establishes happens-before
  /// from the previous releaser when lock handoff is enabled. Non-reentrant.
  sim::Future<void> lock(mem::GlobalAddress addr);
  sim::Future<void> unlock(mem::GlobalAddress addr);

  // ---- point-to-point synchronization (control plane) ----

  /// Sends a signal carrying this process's clock (a happens-before edge)
  /// and optional payload. Fire-and-forget.
  void signal(Rank to, std::uint64_t tag, std::span<const std::byte> payload = {});

  /// Waits for a signal with `tag`; merges the sender's clock (receive
  /// event) and returns the payload.
  sim::Future<std::vector<std::byte>> wait_signal(std::uint64_t tag);

  /// Local computation for `duration` of virtual time (a logical event:
  /// ticks the process clock).
  sim::Future<void> compute(sim::Time duration);

  /// Pure scheduling delay without a logical event (clock untouched).
  sim::Future<void> sleep(sim::Time duration);

 private:
  friend class World;

  nic::Nic& nic();
  const nic::Nic& nic() const;

  /// Common preamble of every access (Algorithms 1-2 steps 1-2): tick the
  /// local clock, snapshot the issue clock, record the issue event.
  nic::OpContext begin_access(core::AccessKind kind, mem::GlobalAddress addr,
                              std::uint32_t len);

  sim::Future<void> put_bytes(mem::GlobalAddress dst, std::vector<std::byte> bytes);

  template <typename T>
  sim::Future<T> typed_get(mem::GlobalAddress src) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto bytes = co_await get(src, sizeof(T));
    T value;
    std::memcpy(&value, bytes.data(), sizeof(T));
    co_return value;
  }

  World& world_;
  Rank rank_;
  /// Identities of the user locks held, for the re-entrant-lock and
  /// unlock-ownership checks. A process holds a few at once, so a flat
  /// vector scanned linearly; its buffer is reused across acquires.
  std::vector<std::uint64_t> held_locks_;
};

}  // namespace dsmr::runtime
