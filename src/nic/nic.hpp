// The RDMA-capable NIC model (paper §III).
//
// The NIC executes one-sided put/get protocols with OS bypass: the *process*
// on the home rank never participates — its NIC serves accesses, maintains
// the per-area clocks, provides area locks, and answers on behalf of the
// process. This is exactly the paper's deployment model for the detection
// algorithm ("implemented in the communication library", §V.B option 1).
//
// Three wire layouts (core::Transport) realize Algorithms 1-2:
//
//   kSeparate  (the algorithms spelled out literally)
//     put: LOCK_REQ/GRANT, CLK_FETCH/RESP, [compare], PUT_DATA/ACK,
//          CLK_EVENT/ACK, UNLOCK                               — 9 messages
//     get: LOCK_REQ/GRANT, CLK_FETCH/RESP, [compare], GET_REQ/RESP,
//          CLK_EVENT/ACK, UNLOCK                               — 9 messages
//
//   kPiggyback (clocks ride on lock/data messages)
//     put: LOCKFETCH_REQ/GRANT, [compare], PUT_COMMIT/ACK      — 4 messages
//     get: GETLOCKED_REQ/RESP                                  — 2 messages
//
//   kHomeSide  (the compare runs inside the home NIC's atomic apply event)
//     put: PUT_COMMIT/ACK                                      — 2 messages
//     get: GETLOCKED_REQ/RESP                                  — 2 messages
//
// With DetectorMode::kOff, ops always take the minimal kHomeSide layout with
// no verdicts and clocks excluded from wire accounting — the fig-2 baseline
// (put: 1 data message + completion ack; get: 2 messages).
//
// Fig. 3 semantics (a put delayed until an in-flight get completes) fall out
// of the FIFO area locks: serving a get holds the area until the response
// has fully arrived at the requester; puts arriving meanwhile queue.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "clocks/vector_clock.hpp"
#include "core/race_report.hpp"
#include "core/rules.hpp"
#include "core/types.hpp"
#include "detect/sharded_detector.hpp"
#include "mem/global_address.hpp"
#include "mem/public_segment.hpp"
#include "net/sim_fabric.hpp"
#include "nic/lock_manager.hpp"
#include "record/recorder.hpp"
#include "sim/engine.hpp"
#include "sim/future.hpp"

namespace dsmr::nic {

struct NicConfig {
  core::DetectorMode mode = core::DetectorMode::kDualClock;
  core::Transport transport = core::Transport::kHomeSide;
  /// User-level lock release→acquire carries the releaser's clock,
  /// establishing happens-before (protocol-internal locks never do: that
  /// would order *every* pair of accesses and hide all races).
  bool lock_clock_handoff = true;
};

/// Per-op context handed down by the runtime layer (dsmr::runtime::Process):
/// the access's id (Process::begin_access) and the initiator clock at issue
/// (post-tick).
struct OpContext {
  std::uint64_t event_id = 0;
  clocks::VectorClock issue_clock;
};

struct PutResult {
  clocks::VectorClock home_clock;  ///< home's post-event clock (ack payload).
  bool raced = false;
};

struct GetResult {
  std::vector<std::byte> data;
  clocks::VectorClock home_clock;
  bool raced = false;
};

struct UserLockResult {
  clocks::VectorClock handoff;  ///< empty when no previous releaser.
};

class Nic {
 public:
  Nic(Rank rank, sim::Engine& engine, net::SimFabric& fabric, mem::PublicSegment& segment,
      detect::ShardedDetector& detector, clocks::VectorClock& clock, NicConfig config,
      core::RaceLog& races);

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  Rank rank() const { return rank_; }
  mem::PublicSegment& segment() { return segment_; }
  detect::ShardedDetector& detector() { return detector_; }
  LockManager& locks() { return locks_; }
  const NicConfig& config() const { return config_; }

  /// Address resolution (the PGAS compiler's role, §III.A): maps a global
  /// address range to the registered area containing it. Installed by the
  /// World with whole-system layout knowledge.
  using AreaResolver =
      std::function<const mem::Area*(Rank, std::uint32_t, std::uint32_t)>;
  void set_resolver(AreaResolver resolver) { resolver_ = std::move(resolver); }

  /// Attaches the run's ordering recorder (record/recorder.hpp). The NIC
  /// emits the home-side events — put apply, get serve (or, on the
  /// separate layout, the clock event that applies either), unlock
  /// handoff — at their atomic commit points. Installed by World::record.
  void set_recorder(record::Recorder* recorder) { recorder_ = recorder; }

  // ---- instrumented one-sided operations (Algorithms 1 and 2) ----

  sim::Future<PutResult> put(mem::GlobalAddress dst, std::vector<std::byte> data,
                             OpContext ctx);
  sim::Future<GetResult> get(mem::GlobalAddress src, std::uint32_t len, OpContext ctx);

  // ---- user-visible area locks (paper §III.A) ----

  /// Acquires the NIC lock on the area at `addr` for this rank. Resolves
  /// with the handoff clock of the previous releaser (empty if none or if
  /// handoff is disabled).
  sim::Future<UserLockResult> user_lock(mem::GlobalAddress addr);

  /// Releases; `release_clock` is stored as the handoff for the next owner
  /// (ignored when handoff is disabled).
  void user_unlock(mem::GlobalAddress addr, const clocks::VectorClock& release_clock);

  // ---- control-plane signals (barriers, broadcast, user sync) ----

  void send_signal(Rank to, std::uint64_t tag, clocks::VectorClock clock,
                   std::vector<std::byte> payload = {});
  sim::Future<net::Message> wait_signal(std::uint64_t tag);

  /// Fabric receive entry point (installed via SimFabric::attach by the
  /// World). The message is moved on: a response into its waiting
  /// Promise, a signal into its waiter or queue, a queued request into its
  /// lock callback.
  void on_message(net::Message&& m);

  /// Human-readable lines for every in-flight request and signal wait on
  /// this rank — the quiescence watchdog's "pending op" evidence. Empty on
  /// a quiescent NIC.
  std::vector<std::string> pending_ops() const;

  /// Distinct signal tags with a queued signal or a waiting receiver. An
  /// entry is erased when it is matched, so a quiescent NIC has none.
  std::size_t signal_tags() const;

  /// The area resolver (exposed for the runtime layer's access preamble).
  /// A direct delegation to the installed resolver — PublicSegment's
  /// amortized sorted index made the old thread-local one-entry cache (and
  /// its process-unique key machinery) dead weight, so lookups now go
  /// straight to the shared index. Read-only over immutable, stably
  /// addressed areas: thread-safe once registrations have quiesced.
  const mem::Area* resolve(Rank rank, std::uint32_t offset, std::uint32_t len) const;

 private:
  net::Message make(net::MsgType type, Rank dst, std::uint64_t op_id,
                    std::uint32_t area) const;
  sim::Future<net::Message> request(net::Message m);
  void resolve_pending(net::Message&& m);
  void reply(const net::Message& request, net::Message response);

  /// True when the area's lock is held by any operation of `rank` (an op
  /// token or the rank's user lock) — such ops proceed without queuing.
  bool rank_holds(mem::AreaId area, Rank rank) const;

  // Home-side handlers. The ones that may queue behind an area lock take
  // the message by rvalue and move it into the queued callback.
  void handle_lock_request(net::Message&& m);
  void send_grant(const net::Message& request, bool delegated);
  void handle_unlock(const net::Message& m);
  void handle_clock_fetch(const net::Message& m);
  void handle_clock_event(const net::Message& m);
  void handle_put_data(const net::Message& m);
  void handle_get_request(const net::Message& m);
  void handle_put_commit(net::Message&& m);
  void handle_get_locked(net::Message&& m);
  void handle_signal(net::Message&& m);

  /// Applies a put at home: optional verdict, clock event, data write,
  /// area clock update, ack.
  void apply_put(const net::Message& m);
  /// apply_put, then releases the area if `token` (the put's op) holds it.
  void commit_put(const net::Message& m, LockToken token);
  /// Serves a get at home: verdict, clock event, area V update, response;
  /// returns the response's delivery time (lock held until then — Fig. 3).
  sim::Time serve_get(const net::Message& m);
  /// Serves a get under a freshly acquired lock on `m.area` and schedules
  /// the lock's release for when the response has arrived (Fig. 3).
  void serve_get_then_release(const net::Message& m);

  void record_home_report(core::AccessKind kind, const net::Message& m,
                          const mem::Area& area, const core::Verdict& verdict);
  /// Initiator-side check of the separate and piggyback transports
  /// (detect::initiator_check over the V/W a grant or clock response
  /// carried from `home`); reports a race and returns whether it found one.
  bool check_at_initiator(core::AccessKind kind, Rank home, const mem::Area& area,
                          const OpContext& ctx, const net::Message& clocks);

  Rank rank_;
  sim::Engine& engine_;
  net::SimFabric& fabric_;
  mem::PublicSegment& segment_;
  detect::ShardedDetector& detector_;
  clocks::VectorClock& clock_;  ///< this rank's process clock (World::Node).
  NicConfig config_;
  core::RaceLog& races_;
  AreaResolver resolver_;
  record::Recorder* recorder_ = nullptr;
  LockManager locks_;

  std::uint64_t next_op_ = 1;
  /// An in-flight request: the promise its response resolves, plus what it
  /// asked for (type/home/area) — the watchdog's evidence.
  struct Pending {
    std::uint64_t op_id = 0;
    sim::Promise<net::Message> promise;
    net::MsgType type = net::MsgType::kSignal;
    Rank dst = kInvalidRank;
    std::uint32_t area = 0;
  };
  /// In-flight requests, one per outstanding op id (an op awaits each
  /// request before sending the next): a handful at most, so a flat vector
  /// searched by op id, unordered.
  std::vector<Pending> pending_;
  /// Signals delivered before their wait, in arrival order.
  std::vector<net::Message> queued_signals_;
  /// Waits posted before their signal, in posting order, by tag.
  std::vector<std::pair<std::uint64_t, sim::Promise<net::Message>>> signal_waiters_;

  /// op_id used by this rank's user-lock protocol (outside the data-op
  /// counter range; the lock token must be stable across lock and unlock).
  static constexpr std::uint64_t kUserLockOp = 0xffffffffULL;
};

}  // namespace dsmr::nic
