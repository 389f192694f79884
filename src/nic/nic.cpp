#include "nic/nic.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "detect/transitions.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace dsmr::nic {

using core::AccessKind;
using core::DetectorMode;
using core::Transport;
using net::Message;
using net::MsgType;

Nic::Nic(Rank rank, sim::Engine& engine, net::SimFabric& fabric, mem::PublicSegment& segment,
         detect::ShardedDetector& detector, clocks::VectorClock& clock, NicConfig config,
         core::RaceLog& races)
    : rank_(rank),
      engine_(engine),
      fabric_(fabric),
      segment_(segment),
      detector_(detector),
      clock_(clock),
      config_(config),
      races_(races) {}

const mem::Area* Nic::resolve(Rank rank, std::uint32_t offset, std::uint32_t len) const {
  DSMR_CHECK_MSG(resolver_, "NIC has no area resolver installed");
  return resolver_(rank, offset, len);
}

Message Nic::make(MsgType type, Rank dst, std::uint64_t op_id, std::uint32_t area) const {
  Message m;
  m.type = type;
  m.src = rank_;
  m.dst = dst;
  m.op_id = op_id;
  m.area = area;
  m.clocks_on_wire = config_.mode != DetectorMode::kOff;
  return m;
}

sim::Future<Message> Nic::request(Message m) {
  const auto same_op = [&](const Pending& p) { return p.op_id == m.op_id; };
  DSMR_CHECK_MSG(std::none_of(pending_.begin(), pending_.end(), same_op),
                 "duplicate in-flight op id " << m.op_id << " on rank " << rank_);
  Pending& pending = pending_.emplace_back();
  pending.op_id = m.op_id;
  pending.type = m.type;
  pending.dst = m.dst;
  pending.area = m.area;
  sim::Future<Message> future = pending.promise.future();
  fabric_.send(std::move(m));
  return future;
}

void Nic::resolve_pending(Message&& m) {
  const auto it = std::find_if(pending_.begin(), pending_.end(),
                               [&](const Pending& p) { return p.op_id == m.op_id; });
  DSMR_CHECK_MSG(it != pending_.end(),
                 "response " << m.describe() << " with no pending op on rank " << rank_);
  // Drop the table's reference before resolving, so the awaiting future
  // holds the last one and receives the message without a copy.
  sim::Promise<Message> promise = std::move(it->promise);
  if (it != pending_.end() - 1) *it = std::move(pending_.back());
  pending_.pop_back();
  promise.set_value(std::move(m));
}

std::vector<std::string> Nic::pending_ops() const {
  // Deterministic order (op id, then tag) — the watchdog diagnostic must be
  // stable across runs for repro diffing.
  std::vector<std::pair<std::uint64_t, std::string>> lines;
  for (const Pending& info : pending_) {
    std::ostringstream out;
    out << "op " << info.op_id << " " << net::to_string(info.type) << " -> P" << info.dst
        << " area " << info.area << " (awaiting response)";
    lines.emplace_back(info.op_id, out.str());
  }
  for (auto it = signal_waiters_.begin(); it != signal_waiters_.end(); ++it) {
    const std::uint64_t tag = it->first;
    const auto same_tag = [tag](const auto& entry) { return entry.first == tag; };
    if (std::any_of(signal_waiters_.begin(), it, same_tag)) continue;  // counted already.
    const auto waiters = std::count_if(it, signal_waiters_.end(), same_tag);
    std::ostringstream out;
    out << "waiting for signal tag " << tag << " (" << waiters << " waiter"
        << (waiters == 1 ? "" : "s") << ")";
    lines.emplace_back(std::uint64_t{1} << 63 | tag, out.str());
  }
  std::sort(lines.begin(), lines.end());
  std::vector<std::string> out;
  out.reserve(lines.size());
  for (auto& [key, text] : lines) out.push_back(std::move(text));
  return out;
}

void Nic::reply(const Message& request, Message response) {
  response.src = rank_;
  response.dst = request.src;
  response.op_id = request.op_id;
  response.area = request.area;
  response.clocks_on_wire = config_.mode != DetectorMode::kOff;
  fabric_.send(std::move(response));
}

bool Nic::rank_holds(mem::AreaId area, Rank rank) const {
  const LockToken holder = locks_.holder(area);
  if (holder == 0) return false;
  // Any token of this rank counts: an op token or the rank's user lock
  // (the high 32 bits of a token are the owning rank).
  return static_cast<Rank>(holder >> 32) == rank;
}

// ---------------------------------------------------------------------------
// Instrumented put (Algorithm 1).
// ---------------------------------------------------------------------------

sim::Future<PutResult> Nic::put(mem::GlobalAddress dst, std::vector<std::byte> data,
                                OpContext ctx) {
  const mem::Area* area = resolve(dst.rank, dst.offset, static_cast<std::uint32_t>(data.size()));
  DSMR_REQUIRE(area != nullptr, "put to unregistered public memory at " << dst.to_string());
  const std::uint32_t offset = dst.offset - area->offset;
  const std::uint64_t op = next_op_++;
  const Transport transport =
      config_.mode == DetectorMode::kOff ? Transport::kHomeSide : config_.transport;

  PutResult result;

  if (transport == Transport::kSeparate) {
    // lock(P1, dst)
    const Message grant = co_await request(make(MsgType::kLockRequest, dst.rank, op, area->id));
    const bool delegated = grant.tag == 1;
    // W' = get_clock_W(P1, dst); V' = get_clock(P1, dst)
    const Message clocks = co_await request(make(MsgType::kClockFetch, dst.rank, op, area->id));
    // if ¬compare(V, V') ∧ ¬compare(V', V): signal_race_condition()
    result.raced = check_at_initiator(AccessKind::kWrite, dst.rank, *area, ctx, clocks);
    // put(P0, src, P1, dst)
    Message put_msg = make(MsgType::kPutData, dst.rank, op, area->id);
    put_msg.offset = offset;
    const auto bytes = static_cast<std::uint32_t>(data.size());
    put_msg.data = std::move(data);
    co_await request(std::move(put_msg));
    // update_clock_W(P1, dst); update_clock(P1, dst)
    Message clock_event = make(MsgType::kClockEvent, dst.rank, op, area->id);
    clock_event.flag = true;  // is-write
    clock_event.length = bytes;  // for the recorded apply event
    clock_event.clock = std::move(ctx.issue_clock);
    clock_event.event_id = ctx.event_id;
    Message ack = co_await request(std::move(clock_event));
    result.home_clock = std::move(ack.clock);
    // unlock(P1, dst)
    Message unlock = make(MsgType::kUnlock, dst.rank, op, area->id);
    unlock.tag = delegated ? 1 : 0;
    fabric_.send(std::move(unlock));
    co_return result;
  }

  if (transport == Transport::kPiggyback) {
    const Message grant =
        co_await request(make(MsgType::kLockFetchRequest, dst.rank, op, area->id));
    result.raced = check_at_initiator(AccessKind::kWrite, dst.rank, *area, ctx, grant);
    Message commit = make(MsgType::kPutCommit, dst.rank, op, area->id);
    commit.offset = offset;
    commit.data = std::move(data);
    commit.clock = std::move(ctx.issue_clock);
    commit.event_id = ctx.event_id;
    commit.flag = false;  // verdict already decided initiator-side
    Message ack = co_await request(std::move(commit));
    result.home_clock = std::move(ack.clock);
    co_return result;
  }

  // kHomeSide (also the DetectorMode::kOff baseline layout).
  Message commit = make(MsgType::kPutCommit, dst.rank, op, area->id);
  commit.offset = offset;
  commit.data = std::move(data);
  commit.clock = std::move(ctx.issue_clock);
  commit.event_id = ctx.event_id;
  commit.flag = config_.mode != DetectorMode::kOff;  // home decides the verdict
  Message ack = co_await request(std::move(commit));
  result.home_clock = std::move(ack.clock);
  result.raced = ack.flag;
  co_return result;
}

// ---------------------------------------------------------------------------
// Instrumented get (Algorithm 2).
// ---------------------------------------------------------------------------

sim::Future<GetResult> Nic::get(mem::GlobalAddress src, std::uint32_t len, OpContext ctx) {
  const mem::Area* area = resolve(src.rank, src.offset, len);
  DSMR_REQUIRE(area != nullptr, "get from unregistered public memory at " << src.to_string());
  const std::uint32_t offset = src.offset - area->offset;
  const std::uint64_t op = next_op_++;
  const Transport transport =
      config_.mode == DetectorMode::kOff ? Transport::kHomeSide : config_.transport;

  GetResult result;

  if (transport == Transport::kSeparate) {
    const Message grant = co_await request(make(MsgType::kLockRequest, src.rank, op, area->id));
    const bool delegated = grant.tag == 1;
    const Message clocks = co_await request(make(MsgType::kClockFetch, src.rank, op, area->id));
    // Algorithm 2 compares the reader clock with the *write* clock W:
    // concurrent reads are not conflicts (Fig. 4).
    result.raced = check_at_initiator(AccessKind::kRead, src.rank, *area, ctx, clocks);
    Message get_msg = make(MsgType::kGetRequest, src.rank, op, area->id);
    get_msg.offset = offset;
    get_msg.length = len;
    Message data_resp = co_await request(std::move(get_msg));
    result.data = std::move(data_resp.data);
    Message clock_event = make(MsgType::kClockEvent, src.rank, op, area->id);
    clock_event.flag = false;  // read
    clock_event.length = len;  // for the recorded apply event
    clock_event.clock = std::move(ctx.issue_clock);
    clock_event.event_id = ctx.event_id;
    Message ack = co_await request(std::move(clock_event));
    result.home_clock = std::move(ack.clock);
    Message unlock = make(MsgType::kUnlock, src.rank, op, area->id);
    unlock.tag = delegated ? 1 : 0;
    fabric_.send(std::move(unlock));
    co_return result;
  }

  // kPiggyback and kHomeSide share the fused two-message get; the verdict is
  // decided at the home NIC inside the serve event in both cases.
  Message get_msg = make(MsgType::kGetLockedRequest, src.rank, op, area->id);
  get_msg.offset = offset;
  get_msg.length = len;
  get_msg.clock = std::move(ctx.issue_clock);
  get_msg.event_id = ctx.event_id;
  get_msg.flag = config_.mode != DetectorMode::kOff;
  Message resp = co_await request(std::move(get_msg));
  result.data = std::move(resp.data);
  result.home_clock = std::move(resp.clock);
  result.raced = resp.flag;
  co_return result;
}

// ---------------------------------------------------------------------------
// User-visible locks.
// ---------------------------------------------------------------------------

sim::Future<UserLockResult> Nic::user_lock(mem::GlobalAddress addr) {
  const mem::Area* area = resolve(addr.rank, addr.offset, 1);
  DSMR_REQUIRE(area != nullptr, "lock on unregistered public memory at " << addr.to_string());
  Message m = make(MsgType::kLockRequest, addr.rank, kUserLockOp, area->id);
  m.flag = true;  // user lock: grant carries the handoff clock.
  Message grant = co_await request(std::move(m));
  co_return UserLockResult{std::move(grant.clock)};
}

void Nic::user_unlock(mem::GlobalAddress addr, const clocks::VectorClock& release_clock) {
  const mem::Area* area = resolve(addr.rank, addr.offset, 1);
  DSMR_REQUIRE(area != nullptr, "unlock on unregistered public memory at " << addr.to_string());
  Message m = make(MsgType::kUnlock, addr.rank, kUserLockOp, area->id);
  m.flag = true;
  if (config_.lock_clock_handoff) m.clock = release_clock;
  fabric_.send(std::move(m));
}

// ---------------------------------------------------------------------------
// Signals.
// ---------------------------------------------------------------------------

void Nic::send_signal(Rank to, std::uint64_t tag, clocks::VectorClock clock,
                      std::vector<std::byte> payload) {
  Message m = make(MsgType::kSignal, to, 0, 0);
  m.tag = tag;
  m.clock = std::move(clock);
  m.data = std::move(payload);
  // Signals always carry their clock on the wire: they are part of the
  // application's own synchronization, not of the detection machinery.
  m.clocks_on_wire = true;
  fabric_.send(std::move(m));
}

// Both signal tables hold only what is pending, in arrival (or posting)
// order, and a tag's oldest entry is found by scanning from the front.
// Collective tags are unique per epoch and round, so the tables stay a
// handful of entries long and a long run does not accumulate one entry per
// barrier ever passed.

sim::Future<Message> Nic::wait_signal(std::uint64_t tag) {
  sim::Promise<Message> promise;
  const auto queued = std::find_if(queued_signals_.begin(), queued_signals_.end(),
                                   [&](const Message& m) { return m.tag == tag; });
  if (queued != queued_signals_.end()) {
    promise.set_value(std::move(*queued));
    queued_signals_.erase(queued);
    return promise.future();
  }
  signal_waiters_.emplace_back(tag, promise);
  return promise.future();
}

void Nic::handle_signal(Message&& m) {
  const auto waiter =
      std::find_if(signal_waiters_.begin(), signal_waiters_.end(),
                   [&](const auto& entry) { return entry.first == m.tag; });
  if (waiter != signal_waiters_.end()) {
    sim::Promise<Message> promise = std::move(waiter->second);
    signal_waiters_.erase(waiter);
    promise.set_value(std::move(m));
    return;
  }
  queued_signals_.push_back(std::move(m));
}

std::size_t Nic::signal_tags() const {
  std::vector<std::uint64_t> tags;
  for (const Message& m : queued_signals_) tags.push_back(m.tag);
  for (const auto& [tag, promise] : signal_waiters_) tags.push_back(tag);
  std::sort(tags.begin(), tags.end());
  return static_cast<std::size_t>(std::unique(tags.begin(), tags.end()) - tags.begin());
}

// ---------------------------------------------------------------------------
// Home-side handlers.
// ---------------------------------------------------------------------------

void Nic::on_message(Message&& m) {
  switch (m.type) {
    // Responses routed back to the awaiting initiator coroutine.
    case MsgType::kLockGrant:
    case MsgType::kClockResponse:
    case MsgType::kPutAck:
    case MsgType::kGetResponse:
    case MsgType::kClockEventAck:
    case MsgType::kLockFetchGrant:
    case MsgType::kPutCommitAck:
    case MsgType::kGetLockedResponse:
      resolve_pending(std::move(m));
      return;

    case MsgType::kLockRequest:
    case MsgType::kLockFetchRequest:
      handle_lock_request(std::move(m));
      return;
    case MsgType::kUnlock:
      handle_unlock(m);
      return;
    case MsgType::kClockFetch:
      handle_clock_fetch(m);
      return;
    case MsgType::kClockEvent:
      handle_clock_event(m);
      return;
    case MsgType::kPutData:
      handle_put_data(m);
      return;
    case MsgType::kGetRequest:
      handle_get_request(m);
      return;
    case MsgType::kPutCommit:
      handle_put_commit(std::move(m));
      return;
    case MsgType::kGetLockedRequest:
      handle_get_locked(std::move(m));
      return;
    case MsgType::kSignal:
      handle_signal(std::move(m));
      return;
  }
  DSMR_UNREACHABLE("unhandled message type");
}

void Nic::handle_lock_request(Message&& m) {
  if (rank_holds(m.area, m.src)) {
    // The requesting rank already holds this area (user lock or outer op):
    // grant re-entrantly; the matching unlock will be a no-op.
    send_grant(m, /*delegated=*/true);
    return;
  }
  const LockToken token = make_lock_token(m.src, m.op_id);
  if (locks_.try_acquire(m.area, token)) {
    send_grant(m, /*delegated=*/false);
    return;
  }
  locks_.acquire(m.area, token).on_ready(
      [this, m = std::move(m)] { send_grant(m, /*delegated=*/false); });
}

void Nic::send_grant(const Message& request, bool delegated) {
  Message grant;
  grant.tag = delegated ? 1 : 0;
  if (request.type == MsgType::kLockFetchRequest) {
    grant.type = MsgType::kLockFetchGrant;
    grant.clock = detector_.v_clock(request.area);
    grant.clock2 = detector_.w_clock(request.area);
    grant.event_id = detector_.last_access_event(request.area);
    grant.event_id2 = detector_.last_write_event(request.area);
    grant.prior_access_rank = detector_.last_access_rank(request.area);
    grant.prior_write_rank = detector_.last_write_rank(request.area);
  } else {
    grant.type = MsgType::kLockGrant;
    if (request.flag && config_.lock_clock_handoff) {
      // User lock: hand over the previous releaser's clock (HB edge).
      if (const clocks::VectorClock* handoff = locks_.handoff(request.area)) {
        grant.clock = *handoff;
      }
    }
  }
  reply(request, std::move(grant));
}

void Nic::handle_unlock(const Message& m) {
  if (m.tag == 1) return;  // delegated grant: the outer holder keeps the lock.
  if (m.flag && config_.lock_clock_handoff && !m.clock.empty()) {
    if (recorder_ != nullptr) {
      recorder_->record(record::EventKind::kUnlockApply, m.src,
                        recorder_->area_index(rank_, m.area));
    }
    locks_.set_handoff(m.area, m.clock);
  }
  locks_.release(m.area, make_lock_token(m.src, m.op_id));
}

void Nic::handle_clock_fetch(const Message& m) {
  Message resp;
  resp.type = MsgType::kClockResponse;
  resp.clock = detector_.v_clock(m.area);
  resp.clock2 = detector_.w_clock(m.area);
  resp.event_id = detector_.last_access_event(m.area);
  resp.event_id2 = detector_.last_write_event(m.area);
  resp.prior_access_rank = detector_.last_access_rank(m.area);
  resp.prior_write_rank = detector_.last_write_rank(m.area);
  reply(m, std::move(resp));
}

void Nic::handle_clock_event(const Message& m) {
  // The home-side clock event: receiving the access is an event at the home
  // NIC (tick + merge, the values the paper's Fig. 5 annotates), and the
  // resulting clock is stored as the area's V (and W for writes). The
  // initiator already decided the verdict, so home_apply does not check.
  // It is the access's apply event, recorded as the home-side layouts
  // record theirs: a fold checks the issue clock here, against the same
  // V/W the initiator fetched under the area lock it still holds.
  if (recorder_ != nullptr) {
    recorder_->record(m.flag ? record::EventKind::kPutApply : record::EventKind::kGetApply,
                      m.src, recorder_->area_index(rank_, m.area), m.length);
  }
  clock_.tick(rank_);
  clock_.merge_from(m.clock);
  detect::home_apply(detector_, config_.mode, m.flag ? AccessKind::kWrite : AccessKind::kRead,
                     m.src, m.clock, clock_, m.area, /*check=*/false, m.event_id,
                     [](const core::Verdict&) {});
  Message ack;
  ack.type = MsgType::kClockEventAck;
  ack.clock = clock_;
  reply(m, std::move(ack));
}

void Nic::handle_put_data(const Message& m) {
  // Separate transport: raw data write under the initiator-held lock; the
  // clock event arrives separately (kClockEvent).
  DSMR_CHECK_MSG(rank_holds(m.area, m.src),
                 "PUT_DATA without the area lock (separate transport bug)");
  const mem::Area& area = segment_.area(m.area);
  segment_.write_bytes(area.offset + m.offset, m.data);
  Message ack;
  ack.type = MsgType::kPutAck;
  reply(m, std::move(ack));
}

void Nic::handle_get_request(const Message& m) {
  DSMR_CHECK_MSG(rank_holds(m.area, m.src),
                 "GET_REQ without the area lock (separate transport bug)");
  const mem::Area& area = segment_.area(m.area);
  Message resp;
  resp.type = MsgType::kGetResponse;
  resp.data = segment_.read_bytes(area.offset + m.offset, m.length);
  reply(m, std::move(resp));
}

// The fused handlers apply at once when the area is free or already held by
// the requesting rank; only a request that must queue builds a callback,
// and it owns the message.

void Nic::handle_put_commit(Message&& m) {
  const LockToken token = make_lock_token(m.src, m.op_id);
  if (rank_holds(m.area, m.src) || locks_.try_acquire(m.area, token)) {
    commit_put(m, token);
    return;
  }
  locks_.acquire(m.area, token).on_ready([this, m = std::move(m), token] { commit_put(m, token); });
}

void Nic::commit_put(const Message& m, LockToken token) {
  apply_put(m);
  // The lock is this op's own (acquired here, or by the piggyback
  // transport's LOCKFETCH) unless an outer op or user lock of the rank holds
  // the area, which keeps it.
  if (locks_.held_by(m.area, token)) locks_.release(m.area, token);
}

void Nic::handle_get_locked(Message&& m) {
  if (rank_holds(m.area, m.src)) {
    serve_get(m);
    return;
  }
  const LockToken token = make_lock_token(m.src, m.op_id);
  if (locks_.try_acquire(m.area, token)) {
    serve_get_then_release(m);
    return;
  }
  locks_.acquire(m.area, token).on_ready([this, m = std::move(m)] { serve_get_then_release(m); });
}

void Nic::serve_get_then_release(const Message& m) {
  const sim::Time delivered_at = serve_get(m);
  // Fig. 3: the area stays locked until the data has fully arrived at the
  // requester; a put landing meanwhile queues behind this release.
  locks_.release_at(engine_, delivered_at, m.area, make_lock_token(m.src, m.op_id));
}

void Nic::apply_put(const Message& m) {
  mem::Area& area = segment_.area(m.area);
  // The whole apply is one atomic home-side event — receive (tick + merge),
  // check, store, ack — so one recorded event covers it.
  if (recorder_ != nullptr) {
    recorder_->record(record::EventKind::kPutApply, m.src,
                      recorder_->area_index(rank_, m.area), m.data.size());
  }
  clock_.tick(rank_);
  clock_.merge_from(m.clock);
  // m.flag: the home decides the verdict (home-side transport, detector on).
  const bool raced = detect::home_apply(
      detector_, config_.mode, AccessKind::kWrite, m.src, m.clock, clock_,
      m.area, /*check=*/m.flag, m.event_id, [&](const core::Verdict& verdict) {
        record_home_report(AccessKind::kWrite, m, area, verdict);
      });
  segment_.write_bytes(area.offset + m.offset, m.data);

  Message ack;
  ack.type = MsgType::kPutCommitAck;
  ack.clock = clock_;
  ack.flag = raced;
  reply(m, std::move(ack));
}

sim::Time Nic::serve_get(const Message& m) {
  mem::Area& area = segment_.area(m.area);
  if (recorder_ != nullptr) {
    recorder_->record(record::EventKind::kGetApply, m.src,
                      recorder_->area_index(rank_, m.area), m.length);
  }
  clock_.tick(rank_);
  clock_.merge_from(m.clock);
  const bool raced = detect::home_apply(
      detector_, config_.mode, AccessKind::kRead, m.src, m.clock, clock_,
      m.area, /*check=*/m.flag, m.event_id, [&](const core::Verdict& verdict) {
        record_home_report(AccessKind::kRead, m, area, verdict);
      });

  Message resp;
  resp.type = MsgType::kGetLockedResponse;
  resp.src = rank_;
  resp.dst = m.src;
  resp.op_id = m.op_id;
  resp.area = m.area;
  resp.data = segment_.read_bytes(area.offset + m.offset, m.length);
  resp.clock = clock_;
  resp.flag = raced;
  resp.clocks_on_wire = config_.mode != DetectorMode::kOff;
  return fabric_.send(std::move(resp));
}

// ---------------------------------------------------------------------------
// Race reporting.
// ---------------------------------------------------------------------------

void Nic::record_home_report(AccessKind kind, const Message& m, const mem::Area& area,
                             const core::Verdict& verdict) {
  core::RaceReport report;
  report.time = engine_.now();
  report.home = rank_;
  report.area = area.id;
  report.area_name = area.name;
  report.accessor = m.src;
  report.kind = kind;
  report.event_id = m.event_id;
  report.accessor_clock = m.clock;
  report.against = verdict.against;
  report.stored_clock = detector_.prior_clock(area.id, verdict.against);
  report.prior_event_id = detector_.prior_event(area.id, verdict.against);
  races_.record(std::move(report));
}

bool Nic::check_at_initiator(AccessKind kind, Rank home, const mem::Area& area,
                             const OpContext& ctx, const Message& clock_resp) {
  const core::Verdict verdict = detect::initiator_check(
      config_.mode, kind, rank_, ctx.issue_clock, home, clock_resp.clock, clock_resp.clock2,
      clock_resp.prior_access_rank, clock_resp.prior_write_rank);
  if (!verdict.race) return false;
  core::RaceReport report;
  report.time = engine_.now();
  report.home = home;
  report.area = area.id;
  report.area_name = area.name;
  report.accessor = rank_;
  report.kind = kind;
  report.event_id = ctx.event_id;
  report.accessor_clock = ctx.issue_clock;
  report.against = verdict.against;
  report.stored_clock = verdict.against == core::ComparedAgainst::kW ? clock_resp.clock2
                                                                     : clock_resp.clock;
  report.prior_event_id = verdict.against == core::ComparedAgainst::kW
                              ? clock_resp.event_id2
                              : clock_resp.event_id;
  races_.record(std::move(report));
  return true;
}

}  // namespace dsmr::nic
