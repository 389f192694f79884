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

namespace {
/// Detection state from clocks fetched off a home NIC: the carried V/W are
/// the home's stored post-event clocks — event clocks of `home` — so their
/// epoch witnesses derive from the home rank for free (no extra wire data).
core::StoredClocks stored_from(const Message& m, Rank home) {
  return core::StoredClocks{m.clock,
                            m.clock2,
                            m.prior_access_rank,
                            m.prior_write_rank,
                            clocks::Epoch::of_event(home, m.clock),
                            clocks::Epoch::of_event(home, m.clock2)};
}
}  // namespace

Nic::Nic(Rank rank, sim::Engine& engine, net::Fabric& fabric, mem::PublicSegment& segment,
         detect::ShardedDetector& detector, clocks::VectorClock& clock, NicConfig config,
         core::RaceLog& races, core::EventLog& events)
    : rank_(rank),
      engine_(engine),
      fabric_(fabric),
      segment_(segment),
      detector_(detector),
      clock_(clock),
      config_(config),
      races_(races),
      events_(events) {}

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
  sim::Promise<Message> promise;
  const auto [it, inserted] = pending_.emplace(m.op_id, promise);
  DSMR_CHECK_MSG(inserted, "duplicate in-flight op id " << m.op_id << " on rank " << rank_);
  (void)it;
  pending_info_[m.op_id] = PendingInfo{m.type, m.dst, m.area};
  fabric_.send(std::move(m));
  return promise.future();
}

void Nic::resolve_pending(const Message& m) {
  const auto it = pending_.find(m.op_id);
  DSMR_CHECK_MSG(it != pending_.end(),
                 "response " << m.describe() << " with no pending op on rank " << rank_);
  sim::Promise<Message> promise = it->second;
  pending_.erase(it);
  pending_info_.erase(m.op_id);
  promise.set_value(m);
}

std::vector<std::string> Nic::pending_ops() const {
  // Deterministic order (op id, then tag) — the watchdog diagnostic must be
  // stable across runs for repro diffing.
  std::vector<std::pair<std::uint64_t, std::string>> lines;
  for (const auto& [op_id, info] : pending_info_) {
    std::ostringstream out;
    out << "op " << op_id << " " << net::to_string(info.type) << " -> P" << info.dst
        << " area " << info.area << " (awaiting response)";
    lines.emplace_back(op_id, out.str());
  }
  for (const auto& [tag, waiters] : signal_waiters_) {
    if (waiters.empty()) continue;
    std::ostringstream out;
    out << "waiting for signal tag " << tag << " (" << waiters.size() << " waiter"
        << (waiters.size() == 1 ? "" : "s") << ")";
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
    const auto verdict = core::check_access(config_.mode, AccessKind::kWrite, rank_,
                                            ctx.issue_clock, stored_from(clocks, dst.rank));
    if (verdict.race) {
      record_initiator_report(AccessKind::kWrite, dst.rank, *area, ctx, clocks, verdict);
      result.raced = true;
    }
    // put(P0, src, P1, dst)
    Message put_msg = make(MsgType::kPutData, dst.rank, op, area->id);
    put_msg.offset = offset;
    put_msg.data = std::move(data);
    co_await request(put_msg);
    // update_clock_W(P1, dst); update_clock(P1, dst)
    Message clock_event = make(MsgType::kClockEvent, dst.rank, op, area->id);
    clock_event.flag = true;  // is-write
    clock_event.clock = ctx.issue_clock;
    clock_event.event_id = ctx.event_id;
    const Message ack = co_await request(clock_event);
    result.home_clock = ack.clock;
    // unlock(P1, dst)
    Message unlock = make(MsgType::kUnlock, dst.rank, op, area->id);
    unlock.tag = delegated ? 1 : 0;
    fabric_.send(std::move(unlock));
    co_return result;
  }

  if (transport == Transport::kPiggyback) {
    const Message grant =
        co_await request(make(MsgType::kLockFetchRequest, dst.rank, op, area->id));
    const auto verdict = core::check_access(config_.mode, AccessKind::kWrite, rank_,
                                            ctx.issue_clock, stored_from(grant, dst.rank));
    if (verdict.race) {
      record_initiator_report(AccessKind::kWrite, dst.rank, *area, ctx, grant, verdict);
      result.raced = true;
    }
    Message commit = make(MsgType::kPutCommit, dst.rank, op, area->id);
    commit.offset = offset;
    commit.data = std::move(data);
    commit.clock = ctx.issue_clock;
    commit.event_id = ctx.event_id;
    commit.flag = false;  // verdict already decided initiator-side
    const Message ack = co_await request(commit);
    result.home_clock = ack.clock;
    co_return result;
  }

  // kHomeSide (also the DetectorMode::kOff baseline layout).
  Message commit = make(MsgType::kPutCommit, dst.rank, op, area->id);
  commit.offset = offset;
  commit.data = std::move(data);
  commit.clock = ctx.issue_clock;
  commit.event_id = ctx.event_id;
  commit.flag = config_.mode != DetectorMode::kOff;  // home decides the verdict
  const Message ack = co_await request(commit);
  result.home_clock = ack.clock;
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
    const auto verdict = core::check_access(config_.mode, AccessKind::kRead, rank_,
                                            ctx.issue_clock, stored_from(clocks, src.rank));
    if (verdict.race) {
      record_initiator_report(AccessKind::kRead, src.rank, *area, ctx, clocks, verdict);
      result.raced = true;
    }
    Message get_msg = make(MsgType::kGetRequest, src.rank, op, area->id);
    get_msg.offset = offset;
    get_msg.length = len;
    const Message data_resp = co_await request(get_msg);
    result.data = data_resp.data;
    Message clock_event = make(MsgType::kClockEvent, src.rank, op, area->id);
    clock_event.flag = false;  // read
    clock_event.clock = ctx.issue_clock;
    clock_event.event_id = ctx.event_id;
    const Message ack = co_await request(clock_event);
    result.home_clock = ack.clock;
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
  get_msg.clock = ctx.issue_clock;
  get_msg.event_id = ctx.event_id;
  get_msg.flag = config_.mode != DetectorMode::kOff;
  const Message resp = co_await request(get_msg);
  result.data = resp.data;
  result.home_clock = resp.clock;
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
  const Message grant = co_await request(m);
  co_return UserLockResult{grant.clock};
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

sim::Future<Message> Nic::wait_signal(std::uint64_t tag) {
  auto& queue = queued_signals_[tag];
  if (!queue.empty()) {
    Message m = std::move(queue.front());
    queue.pop_front();
    sim::Promise<Message> immediate;
    immediate.set_value(std::move(m));
    return immediate.future();
  }
  signal_waiters_[tag].emplace_back();
  return signal_waiters_[tag].back().future();
}

void Nic::handle_signal(const Message& m) {
  auto& waiters = signal_waiters_[m.tag];
  if (!waiters.empty()) {
    sim::Promise<Message> promise = std::move(waiters.front());
    waiters.pop_front();
    promise.set_value(m);
    return;
  }
  queued_signals_[m.tag].push_back(m);
}

// ---------------------------------------------------------------------------
// Home-side handlers.
// ---------------------------------------------------------------------------

void Nic::on_message(const Message& m) {
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
      resolve_pending(m);
      return;

    case MsgType::kLockRequest:
      handle_lock_request(m, /*with_clocks=*/false);
      return;
    case MsgType::kLockFetchRequest:
      handle_lock_request(m, /*with_clocks=*/true);
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
      handle_put_commit(m);
      return;
    case MsgType::kGetLockedRequest:
      handle_get_locked(m);
      return;
    case MsgType::kSignal:
      handle_signal(m);
      return;
  }
  DSMR_UNREACHABLE("unhandled message type");
}

void Nic::handle_lock_request(const Message& m, bool with_clocks) {
  const auto grant_type = with_clocks ? MsgType::kLockFetchGrant : MsgType::kLockGrant;
  auto send_grant = [this, m, grant_type](bool delegated) {
    Message grant;
    grant.type = grant_type;
    grant.tag = delegated ? 1 : 0;
    if (grant_type == MsgType::kLockFetchGrant) {
      grant.clock = detector_.v_clock(m.area);
      grant.clock2 = detector_.w_clock(m.area);
      grant.event_id = detector_.last_access_event(m.area);
      grant.event_id2 = detector_.last_write_event(m.area);
      grant.prior_access_rank = detector_.last_access_rank(m.area);
      grant.prior_write_rank = detector_.last_write_rank(m.area);
    } else if (m.flag && config_.lock_clock_handoff) {
      // User lock: hand over the previous releaser's clock (HB edge).
      if (const clocks::VectorClock* handoff = locks_.handoff(m.area)) {
        grant.clock = *handoff;
      }
    }
    reply(m, std::move(grant));
  };

  if (rank_holds(m.area, m.src)) {
    // The requesting rank already holds this area (user lock or outer op):
    // grant re-entrantly; the matching unlock will be a no-op.
    send_grant(/*delegated=*/true);
    return;
  }
  const LockToken token = make_lock_token(m.src, m.op_id);
  locks_.acquire(m.area, token).on_ready([send_grant] { send_grant(/*delegated=*/false); });
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
  clock_.tick(rank_);
  clock_.merge_from(m.clock);
  detect::home_apply(detector_, config_.mode, m.flag ? AccessKind::kWrite : AccessKind::kRead,
                     m.src, m.clock, clock_, m.area, /*check=*/false, m.event_id,
                     [](const core::Verdict&) {});
  events_.annotate_apply(m.event_id, clock_);
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

void Nic::handle_put_commit(const Message& m) {
  const LockToken token = make_lock_token(m.src, m.op_id);
  auto proceed = [this, m, token] {
    apply_put(m);
    if (locks_.held_by(m.area, token)) locks_.release(m.area, token);
  };
  if (rank_holds(m.area, m.src)) {
    proceed();
    return;
  }
  locks_.acquire(m.area, token).on_ready(proceed);
}

void Nic::handle_get_locked(const Message& m) {
  const LockToken token = make_lock_token(m.src, m.op_id);
  if (rank_holds(m.area, m.src)) {
    serve_get(m);
    return;
  }
  locks_.acquire(m.area, token).on_ready([this, m, token] {
    const sim::Time delivered_at = serve_get(m);
    // Fig. 3: the area stays locked until the data has fully arrived at the
    // requester; a put landing meanwhile queues behind this release.
    engine_.schedule_at(delivered_at, [this, m, token] { locks_.release(m.area, token); });
  });
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
  events_.annotate_apply(m.event_id, clock_);

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
  events_.annotate_apply(m.event_id, clock_);

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

void Nic::record_initiator_report(AccessKind kind, Rank home, const mem::Area& area,
                                  const OpContext& ctx, const Message& clock_resp,
                                  const core::Verdict& verdict) {
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
}

}  // namespace dsmr::nic
