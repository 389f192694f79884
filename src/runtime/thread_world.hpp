// The real-threads execution backend: each rank is one OS thread of this
// process, and the detector runs inline on the put/get path.
//
// Where runtime::World simulates the machine on a single-threaded
// cooperative engine (and is therefore seeded, replayable, and the oracle),
// a ThreadWorld executes ranks as std::threads sharing the PublicSegment
// state directly — the deployment shape the paper claims for the
// NIC-resident detector. The schedule is whatever the real machine
// produces: runs are NOT replayable, and harnesses compare backends by
// final verdict *signature* (completion + which areas raced), never by
// schedule (docs/testing.md, "Backends").
//
// Detection model. Each one-sided op ticks the initiator's thread-confined
// vector clock and checks inline against the home's detect::ShardedDetector,
// under that detector's shard mutex (shard = area id mod shards):
//
//   tick; lock shard; detect::thread_access (check the issue clock against
//   the V/W lane, then store it into V, and W for writes — the transition
//   replay_fold runs offline); move the bytes; unlock.
//
// The stored clock is the *initiator's issue clock* (a genuine event clock,
// so the epoch O(1) fast path applies — and debug builds auto-cross-check
// every inline verdict against check_access_oracle). This differs from the
// sim, which stores the home NIC's post-event clock; both induce the same
// verdicts on the generated-program families the differential harness
// compares (fuzz/thread_harness.hpp explains why), but per-event clock
// values differ — one more reason comparison is by signature. Generated
// programs run here as the explorer's lowering (explore::flatten_program):
// the steps a certificate enumerates are the steps these threads execute.
//
// One clock regime, the sim's default (ThreadWorldConfig::lock_clock_handoff
// and acked_puts are constants). Happens-before edges beyond program order,
// all backed by real synchronization (a mutex or mailbox the edge
// physically passes through):
//  * signal → wait_signal delivers the sender's clock (receive event);
//  * user lock release → next acquire merges the handoff clock, the join
//    of the releases (detect::hand_off);
//  * a get merges the stored W it read from (reads-from edge);
//  * a put merges the area's pre-update V ∨ W on its ack (completion
//    edge), as the sim's ack carries the home clock.
//
// Logically racy programs stay *physically* race-free (TSan-clean): every
// byte of shared payload moves under the area's detector shard mutex; a
// flagged race is a property of the clocks, not a torn access.
//
// Shutdown is unconditional: every blocking wait carries the run deadline,
// so an orphaned wait (deadlocked program) becomes a reported stuck rank
// and run() still joins every thread — no leaks for ASan to find.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "clocks/vector_clock.hpp"
#include "core/race_report.hpp"
#include "core/rules.hpp"
#include "core/types.hpp"
#include "detect/sharded_detector.hpp"
#include "mem/global_address.hpp"
#include "mem/public_segment.hpp"
#include "net/thread_fabric.hpp"
#include "record/log.hpp"

namespace dsmr::record {
class Recorder;
class ReplayGate;
}  // namespace dsmr::record

namespace dsmr::runtime {

class ThreadProcess;

struct ThreadWorldConfig {
  /// The threaded backend's one clock regime (see the header comment); a
  /// recorder or replay log must carry the same header flags.
  static constexpr bool lock_clock_handoff = true;
  static constexpr bool acked_puts = true;

  int nprocs = 2;
  core::DetectorMode mode = core::DetectorMode::kDualClock;
  std::uint32_t segment_bytes = 1 << 20;  ///< public memory per rank.
  /// Shard count of each home's detect::ShardedDetector: concurrent ops on
  /// different areas of one home contend only when area ids collide mod
  /// `shards`.
  int shards = 8;
  /// Join watchdog: every blocking wait gives up this long after run()
  /// starts, turning any deadlock into stuck ranks instead of a hang.
  std::chrono::milliseconds run_timeout{20'000};
  /// Ordering recorder (record/recorder.hpp), or null. Each op stamps one
  /// event at its linearization point (inside the shard / user-lock mutex),
  /// from the stamp of the sync object that orders it — the detector shard,
  /// the user lock, or the signal it waits for — so the merged log is a
  /// legal linearization of the run: the one the offline fold and a gated
  /// replay reproduce.
  record::Recorder* recorder = nullptr;
  /// Recorded log to replay, or null. When set, every op first waits its
  /// turn at a ReplayGate built from the log's event sequence, which forces
  /// the nondeterministic thread schedule back into the recorded
  /// linearization order — two replays of one log produce identical verdict
  /// signatures. The log's nprocs/backend/handoff/ack regime must match this
  /// backend's (checked); the detector mode may differ (record cheap at kOff,
  /// replay under the full dual-clock detector).
  const record::Log* replay = nullptr;
};

struct ThreadRunReport {
  bool completed = false;         ///< every spawned body ran to its end.
  std::vector<Rank> stuck_ranks;  ///< bodies that hit the deadline blocked.
  std::uint64_t race_count = 0;
  std::uint64_t checks = 0;       ///< inline ShardedDetector::check_one calls.
  std::uint64_t wall_ns = 0;      ///< run() wall time (checks/sec = checks/wall).
};

class ThreadWorld {
 public:
  explicit ThreadWorld(ThreadWorldConfig config);
  ~ThreadWorld();

  ThreadWorld(const ThreadWorld&) = delete;
  ThreadWorld& operator=(const ThreadWorld&) = delete;

  const ThreadWorldConfig& config() const { return config_; }
  int nprocs() const { return config_.nprocs; }

  /// Registers `bytes` of shared data in `home`'s public memory. Pre-run
  /// only: the area index and lock table are immutable once threads start,
  /// which is what makes their concurrent lookup lock-free.
  mem::GlobalAddress alloc(Rank home, std::uint32_t bytes, std::string name);

  /// Installs the program for `rank` (a plain blocking function — ranks are
  /// threads here, not coroutines).
  void spawn(Rank rank, std::function<void(ThreadProcess&)> body);

  /// Starts one thread per spawned rank, joins them all (always — see the
  /// deadline contract above), and reports.
  ThreadRunReport run();

  // ---- inspection (post-run unless noted) ----
  core::RaceLog& races() { return races_; }
  mem::PublicSegment& segment(Rank rank);
  detect::ShardedDetector& detector(Rank rank);
  ThreadProcess& process(Rank rank);
  /// Folded traffic ledger (per-rank shards merged; see ThreadFabric). Each
  /// op charges the kHomeSide messages it stands for by shape
  /// (TrafficCounters::charge) without building them.
  net::TrafficCounters traffic() const { return fabric_.fold(); }

 private:
  friend class ThreadProcess;

  /// Thrown by blocking waits at the deadline; caught by the thread wrapper
  /// in run(), which records the rank as stuck.
  struct StuckRank {};

  /// FIFO ticket lock backing one area's user-visible NIC lock, plus the
  /// release→acquire handoff clock.
  struct UserLock {
    std::mutex mutex;
    std::condition_variable turn;
    std::uint64_t next_ticket = 0;
    std::uint64_t now_serving = 0;
    /// Tickets whose waiter hit the deadline and left; the serving counter
    /// skips them so one stuck rank doesn't wedge the whole queue.
    std::set<std::uint64_t> abandoned;
    /// Join of the releases (detect::hand_off); empty until the first
    /// release.
    clocks::VectorClock handoff;
    /// Record stamp of the last lock/unlock (Recorder::record_thread's sync
    /// slot), so an unlock's stamp precedes the next grant's.
    std::uint64_t record_stamp = 0;
  };

  struct Node {
    Node(Rank rank, const ThreadWorldConfig& config);
    mem::PublicSegment segment;
    /// This home's detection state — V/W lanes plus the shard mutexes ops
    /// lock around their check/store/data-move critical sections.
    detect::ShardedDetector detector;
    /// One lock per registered area, indexed by AreaId. Grown pre-run only.
    std::vector<std::unique_ptr<UserLock>> user_locks;
  };
  /// Blocks until the replay gate's cursor reaches an event owned by `rank`,
  /// then checks it is the expected (kind, detail) — a mismatch means the
  /// program being replayed is not the one that was recorded. Returns the
  /// gated event (null when not replaying); throws StuckRank when the log
  /// has no more events for this rank (the recorded run had it blocked) or
  /// the deadline passes (schedule divergence — surfaces as a stuck rank and
  /// therefore a signature mismatch).
  const record::Event* replay_enter(Rank rank, record::EventKind kind,
                                    std::uint64_t detail);
  void replay_advance();
  void record_race(core::AccessKind kind, Rank accessor, Rank home, mem::AreaId area,
                   const clocks::VectorClock& accessor_clock, const core::Verdict& verdict,
                   std::uint64_t event_id);

  ThreadWorldConfig config_;
  net::ThreadFabric fabric_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<ThreadProcess>> processes_;
  std::vector<std::function<void(ThreadProcess&)>> bodies_;
  core::RaceLog races_;
  std::mutex races_mutex_;
  std::chrono::steady_clock::time_point deadline_{};
  /// (home, id) → flat area-table index while replaying: ops name areas by
  /// the log's flat index, and alloc() verifies the program registers the
  /// same area table the recorded run did.
  record::AreaIndex replay_areas_;
  std::unique_ptr<record::ReplayGate> gate_;
  bool ran_ = false;
};

/// One rank's blocking op surface — the threaded analogue of
/// runtime::Process. Confined to its own thread during run(); the clock is
/// thread-local state, all cross-thread edges go through ThreadWorld's
/// mutexes and the fabric's mailboxes.
class ThreadProcess {
 public:
  ThreadProcess(Rank rank, ThreadWorld& world);

  Rank rank() const { return rank_; }
  int nprocs() const { return world_.nprocs(); }
  const clocks::VectorClock& clock() const { return clock_; }
  std::uint64_t checks() const { return checks_; }

  /// Blocking acked write of `data` to the area at `dst`.
  void put(mem::GlobalAddress dst, const std::vector<std::byte>& data);
  /// Blocking read of `len` bytes from the area at `src`.
  std::vector<std::byte> get(mem::GlobalAddress src, std::uint32_t len);

  /// User-visible NIC area lock (FIFO; merges the handoff clock).
  void lock(mem::GlobalAddress addr);
  void unlock(mem::GlobalAddress addr);

  /// Control-plane signal carrying the sender's clock (+ payload).
  void signal(Rank to, std::uint64_t tag, std::vector<std::byte> payload = {});
  /// Blocks for a signal with `tag`; merges the sender's clock (receive
  /// event) and returns the payload. Deadline-bounded (stuck on timeout).
  std::vector<std::byte> wait_signal(std::uint64_t tag);

  /// Virtual-duration ops, mapped to bounded real pauses: the virtual `ns`
  /// only shapes interleavings here, it is not a timing promise.
  void sleep(std::uint64_t ns);
  void compute(std::uint64_t ns);

 private:
  friend class ThreadWorld;

  /// An op's target: the home's node and the area's id, straight from the
  /// segment index. put/get/lock/unlock never read the mem::Area itself;
  /// only a race report or a lock diagnostic looks up its name.
  struct Resolved {
    ThreadWorld::Node* node;
    mem::AreaId area;
  };
  Resolved resolve(mem::GlobalAddress addr, std::uint32_t len);
  std::uint64_t next_event_id() { return (static_cast<std::uint64_t>(rank_) << 40) | ++ops_; }
  /// Flat area-table index for the recorder / replay gate. Valid only while
  /// a recorder or replay log is attached.
  std::uint64_t recorded_area(Rank home, mem::AreaId area_id) const;
  /// sleep/compute: one kTick event, then a real pause of the virtual `ns`
  /// capped at `cap` (skipped under the replay gate).
  void tick_and_pause(std::uint64_t ns, std::chrono::microseconds cap);

  Rank rank_;
  ThreadWorld& world_;
  clocks::VectorClock clock_;
  std::uint64_t ops_ = 0;
  std::uint64_t checks_ = 0;
};

}  // namespace dsmr::runtime
