#include "runtime/process.hpp"

#include <utility>

#include "record/recorder.hpp"
#include "runtime/world.hpp"
#include "util/assert.hpp"

namespace dsmr::runtime {

namespace {
/// Lockset-analysis identity of a user lock: (home rank, area id).
std::uint64_t lock_identity(Rank home, mem::AreaId area) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(home)) << 32) | area;
}

/// Flat area-table index of `addr`'s area for the attached recorder.
std::uint64_t recorded_area(World& world, const nic::Nic& nic,
                            mem::GlobalAddress addr) {
  const mem::Area* area = nic.resolve(addr.rank, addr.offset, 1);
  DSMR_CHECK(area != nullptr);
  return world.recorder()->area_index(addr.rank, area->id);
}
}  // namespace

Process::Process(World& world, Rank rank) : world_(world), rank_(rank) {}

int Process::nprocs() const { return world_.nprocs(); }

sim::Time Process::now() const { return world_.engine().now(); }

sim::Engine& Process::engine() { return world_.engine(); }

const clocks::VectorClock& Process::clock() const {
  return world_.node_clock(rank_);
}

nic::Nic& Process::nic() { return world_.nic(rank_); }
const nic::Nic& Process::nic() const { return world_.nic(rank_); }

nic::OpContext Process::begin_access(core::AccessKind kind, mem::GlobalAddress addr,
                                     std::uint32_t len) {
  // update_local_clock: the access is an event at this process.
  world_.node_clock(rank_).tick(rank_);

  nic::OpContext ctx;
  ctx.issue_clock = clock();

  core::AccessEvent event;
  event.time = now();
  event.rank = rank_;
  event.kind = kind;
  event.home = addr.rank;
  const mem::Area* area = nic().resolve(addr.rank, addr.offset, len);
  DSMR_REQUIRE(area != nullptr,
               "access to unregistered public memory at " << addr.to_string());
  event.area = area->id;
  event.offset = addr.offset - area->offset;
  event.length = len;
  event.issue_clock = ctx.issue_clock;
  event.held_locks.assign(held_locks_.begin(), held_locks_.end());
  ctx.event_id = world_.events().record(std::move(event));
  if (auto* rec = world_.recorder()) {
    rec->record(kind == core::AccessKind::kWrite ? record::EventKind::kPutIssue
                                                 : record::EventKind::kGetIssue,
                rank_, rec->area_index(addr.rank, area->id));
  }
  return ctx;
}

sim::Future<void> Process::put(mem::GlobalAddress dst, std::span<const std::byte> src) {
  return put_bytes(dst, std::vector<std::byte>(src.begin(), src.end()));
}

sim::Future<void> Process::put_bytes(mem::GlobalAddress dst, std::vector<std::byte> bytes) {
  const auto ctx = begin_access(core::AccessKind::kWrite, dst,
                                static_cast<std::uint32_t>(bytes.size()));
  const nic::PutResult result = co_await nic().put(dst, std::move(bytes), ctx);
  // With acked puts the completion ack carries knowledge: "put returned,
  // then I told someone" causally orders later accesses after this write.
  // Without it, puts are the paper's pure one-sided writes
  // (WorldConfig::acked_puts).
  if (world_.config().acked_puts) {
    if (world_.recorder() != nullptr) {
      world_.recorder()->record(record::EventKind::kPutAck, rank_,
                                recorded_area(world_, nic(), dst));
    }
    world_.node_clock(rank_).merge_from(result.home_clock);
  }
}

sim::Future<std::vector<std::byte>> Process::get(mem::GlobalAddress src,
                                                 std::uint32_t len) {
  const auto ctx = begin_access(core::AccessKind::kRead, src, len);
  const nic::GetResult result = co_await nic().get(src, len, ctx);
  if (world_.recorder() != nullptr) {
    world_.recorder()->record(record::EventKind::kGetMerge, rank_,
                              recorded_area(world_, nic(), src));
  }
  world_.node_clock(rank_).merge_from(result.home_clock);
  co_return result.data;
}

sim::Future<void> Process::copy(mem::GlobalAddress src, mem::GlobalAddress dst,
                                std::uint32_t len) {
  auto bytes = co_await get(src, len);
  co_await put_bytes(dst, std::move(bytes));
}

sim::Future<void> Process::lock(mem::GlobalAddress addr) {
  const mem::Area* area = nic().resolve(addr.rank, addr.offset, 1);
  DSMR_REQUIRE(area != nullptr, "lock on unregistered memory at " << addr.to_string());
  const std::uint64_t identity = lock_identity(addr.rank, area->id);
  DSMR_REQUIRE(held_locks_.count(identity) == 0,
               "re-entrant user lock on " << addr.to_string());
  const nic::UserLockResult result = co_await nic().user_lock(addr);
  // Acquisition is an event; merging the previous releaser's clock creates
  // the release→acquire happens-before edge.
  if (auto* rec = world_.recorder()) {
    rec->record(record::EventKind::kLock, rank_, rec->area_index(addr.rank, area->id));
  }
  world_.node_clock(rank_).tick(rank_);
  if (!result.handoff.empty()) world_.node_clock(rank_).merge_from(result.handoff);
  held_locks_.insert(identity);
}

sim::Future<void> Process::unlock(mem::GlobalAddress addr) {
  const mem::Area* area = nic().resolve(addr.rank, addr.offset, 1);
  DSMR_REQUIRE(area != nullptr, "unlock on unregistered memory at " << addr.to_string());
  const std::uint64_t identity = lock_identity(addr.rank, area->id);
  DSMR_REQUIRE(held_locks_.count(identity) == 1,
               "unlock of a lock this process does not hold: " << addr.to_string());
  if (auto* rec = world_.recorder()) {
    rec->record(record::EventKind::kUnlockIssue, rank_,
                rec->area_index(addr.rank, area->id));
  }
  world_.node_clock(rank_).tick(rank_);  // release is an event.
  nic().user_unlock(addr, clock());
  held_locks_.erase(identity);
  // The unlock message is fire-and-forget; co_return keeps the signature
  // uniform with lock() for callers.
  co_return;
}

void Process::signal(Rank to, std::uint64_t tag, std::span<const std::byte> payload) {
  if (world_.recorder() != nullptr) {
    world_.recorder()->record(record::EventKind::kSignal, rank_,
                              static_cast<std::uint64_t>(to), tag);
  }
  world_.node_clock(rank_).tick(rank_);  // send is an event.
  nic().send_signal(to, tag, clock(), {payload.begin(), payload.end()});
}

sim::Future<std::vector<std::byte>> Process::wait_signal(std::uint64_t tag) {
  const net::Message msg = co_await nic().wait_signal(tag);
  if (world_.recorder() != nullptr) {
    // Field d pins WHICH send was consumed: the sender ticks before every
    // signal, so its own clock component names the send uniquely even when
    // same-channel signals arrive reordered (perturbation, fault retries).
    world_.recorder()->record(record::EventKind::kWaitMatch, rank_,
                              static_cast<std::uint64_t>(msg.src), tag,
                              msg.clock[static_cast<std::size_t>(msg.src)]);
  }
  // Receive event: tick, then merge the sender's clock (paper Fig. 5).
  world_.node_clock(rank_).tick(rank_);
  world_.node_clock(rank_).merge_from(msg.clock);
  co_return msg.data;
}

sim::Future<void> Process::compute(sim::Time duration) {
  if (world_.recorder() != nullptr) {
    world_.recorder()->record(record::EventKind::kTick, rank_);
  }
  world_.node_clock(rank_).tick(rank_);  // a local event.
  // Wakeup skew (schedule perturbation): the computation "runs long" by a
  // seeded bounded amount — legal, since duration carries no ordering
  // semantics beyond the delay itself.
  co_await sim::Delay{engine(), duration + world_.wakeup_skew()};
}

sim::Future<void> Process::sleep(sim::Time duration) {
  // Pure scheduling delay: no logical event, the clock is untouched. Used
  // by tests that reproduce the paper's figures with exact clock values.
  co_await sim::Delay{engine(), duration + world_.wakeup_skew()};
}

}  // namespace dsmr::runtime
