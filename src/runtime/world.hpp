// The simulated machine: n processes, their public memories and NICs, one
// interconnect, one virtual clock — plus the global race log and, when the
// run is recorded, its ordering log (record/log.hpp).
//
// A World is single-use: configure, allocate shared areas, spawn one program
// per rank, run to completion, then inspect races/log/traffic.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "clocks/vector_clock.hpp"
#include "core/race_report.hpp"
#include "core/types.hpp"
#include "detect/sharded_detector.hpp"
#include "mem/global_address.hpp"
#include "mem/public_segment.hpp"
#include "net/sim_fabric.hpp"
#include "nic/nic.hpp"
#include "sim/engine.hpp"
#include "sim/perturb.hpp"
#include "sim/task.hpp"

namespace dsmr::runtime {

class Process;

}  // namespace dsmr::runtime

namespace dsmr::record {
class Recorder;
struct Log;
}  // namespace dsmr::record

namespace dsmr::runtime {

struct WorldConfig {
  int nprocs = 2;
  std::uint64_t seed = 1;
  core::DetectorMode mode = core::DetectorMode::kDualClock;
  /// Lock shards per node detector (detect::ShardedDetector). The sim runs
  /// single-threaded, so 1 is right for it; >1 exists so the
  /// shard-equivalence suite can prove the partitioning is verdict-neutral.
  int detector_shards = 1;
  core::Transport transport = core::Transport::kHomeSide;
  net::LatencyModel latency{};
  /// Delay-bound schedule perturbation (sim/perturb.hpp): seeded extra skew
  /// on message delivery and task wakeups. Identity by default; (seed,
  /// perturb) names a replayable schedule.
  sim::PerturbConfig perturb{};
  /// Fault-injection plan (net/fault.hpp): lossy/duplicating/partitioned
  /// wire behind the reliable transport. Off by default; (seed, perturb,
  /// fault) is the complete replay coordinate.
  net::FaultPlan fault{};
  bool lock_clock_handoff = true;
  /// When true (default), a put's completion ack merges the home's clock
  /// into the initiator — puts behave as acknowledged/blocking writes, and
  /// produce-then-notify patterns are causally ordered. When false, puts are
  /// the paper's pure one-sided unacknowledged writes: completion conveys no
  /// knowledge, which is the regime in which Fig. 5c's m1 × m4 race exists.
  bool acked_puts = true;
  std::uint32_t segment_bytes = 1 << 20;   ///< public memory per rank.
  bool print_races = false;                ///< echo race reports to stderr
                                           ///< (the paper's §IV.D signaling).
  std::uint64_t max_events = 100'000'000;  ///< runaway-simulation guard.
};

struct RunReport {
  bool completed = false;          ///< every spawned program ran to its end.
  std::vector<Rank> stuck_ranks;   ///< programs still blocked at drain (deadlock).
  sim::Time end_time = 0;
  std::uint64_t engine_events = 0;
  std::uint64_t race_count = 0;
  bool hit_event_cap = false;      ///< stopped by max_events, not quiescence.
  /// The quiescence watchdog's structured dump — non-empty exactly when the
  /// run ended non-quiescent (stuck tasks, event cap, or undeliverable
  /// messages past the retry cap): per-rank pending NIC ops, the transport's
  /// oldest unacked messages, and the live coroutine frame count. Callers
  /// (dsmr_fuzz, dsmr_explore) surface it and exit nonzero instead of
  /// letting Engine teardown sweep the orphaned frames silently.
  std::string diagnostic;
};

class World {
 public:
  explicit World(WorldConfig config);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  const WorldConfig& config() const { return config_; }
  int nprocs() const { return config_.nprocs; }

  /// Registers `bytes` of shared data in `home`'s public memory (the
  /// compiler's data-placement role, §III.A). The returned global address
  /// is the area's start; the area is the unit of locking and detection.
  mem::GlobalAddress alloc(Rank home, std::uint32_t bytes, std::string name);

  /// Records this run (record/recorder.hpp) with a recorder the World
  /// owns. Must be called before any alloc(): areas register with the
  /// recorder in allocation order, and the NICs/processes then emit one
  /// event per clock-affecting step, on every wire layout. run() seals the
  /// log with the run's verdicts.
  void record();
  record::Recorder* recorder() { return recorder_.get(); }  ///< null if unrecorded.
  /// The sealed ordering log of a record()ed run, valid after run(): the
  /// input of every offline analysis (analysis/, baseline/).
  const record::Log& log() const;

  /// An unrecorded run's next access id, its issue ordinal (a recorded run
  /// uses the issue event's log index).
  std::uint64_t next_access_id() { return ++accesses_; }

  /// Installs the program for `rank`.
  ///
  /// The body may be a capturing (coroutine) lambda: the World stores the
  /// closure at a stable address for its whole lifetime, so captures remain
  /// valid inside the coroutine frame. (A coroutine lambda's captures live
  /// in the closure object, not the frame — destroying the closure while
  /// the coroutine is suspended is the classic C++20 lifetime bug.)
  void spawn(Rank rank, std::function<sim::Task(Process&)> body);

  /// Runs the simulation to completion (or deadlock / event cap).
  RunReport run();

  // ---- inspection ----
  sim::Engine& engine() { return engine_; }
  core::RaceLog& races() { return races_; }
  net::SimFabric& fabric() { return fabric_; }  ///< e.g. for trace recording.
  const net::TrafficCounters& traffic() const { return fabric_.counters(); }
  void reset_traffic() { fabric_.reset_counters(); }
  mem::PublicSegment& segment(Rank rank);
  detect::ShardedDetector& detector(Rank rank);
  nic::Nic& nic(Rank rank);
  clocks::VectorClock& node_clock(Rank rank);
  Process& process(Rank rank);

  /// The next wakeup skew under the configured perturbation (0 when
  /// disabled). Consumed by Process::sleep / Process::compute.
  sim::Time wakeup_skew() { return wakeup_perturb_.skew(); }

  /// Detection-metadata bytes across all ranks (CLAIM-V.A1).
  std::size_t total_clock_bytes() const;

 private:
  struct Node {
    Node(Rank rank, World& world);
    mem::PublicSegment segment;
    detect::ShardedDetector detector;  ///< declared before nic (init order).
    /// The process's logical clock. Paper §IV.B keeps a clock matrix V_{Pi}
    /// per process and ticks V_{Pi}[i,i] before each event, but
    /// Algorithms 1-3 only read the matrix's own row: this vector clock.
    clocks::VectorClock clock;
    nic::Nic nic;
  };

  WorldConfig config_;
  std::unique_ptr<record::Recorder> recorder_;
  std::uint64_t accesses_ = 0;
  sim::Engine engine_;
  net::SimFabric fabric_;
  sim::Perturbator wakeup_perturb_;
  core::RaceLog races_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Process>> processes_;
  /// Spawned program closures, heap-pinned so coroutine frames may keep
  /// referring to their captures. Destroyed after tasks_ (declared before).
  std::vector<std::unique_ptr<std::function<sim::Task(Process&)>>> bodies_;
  std::vector<sim::Task> tasks_;
  std::vector<Rank> task_ranks_;
  bool ran_ = false;
};

}  // namespace dsmr::runtime
