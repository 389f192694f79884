#include "runtime/world.hpp"

#include <cstdio>
#include <sstream>

#include "record/recorder.hpp"
#include "runtime/process.hpp"
#include "util/assert.hpp"

namespace dsmr::runtime {

World::Node::Node(Rank rank, World& world)
    : segment(rank, world.config_.segment_bytes, static_cast<std::size_t>(world.config_.nprocs)),
      detector(static_cast<std::size_t>(world.config_.nprocs), rank,
               world.config_.detector_shards),
      clock(static_cast<std::size_t>(world.config_.nprocs)),
      nic(rank, world.engine_, world.fabric_, segment, detector, clock,
          nic::NicConfig{world.config_.mode, world.config_.transport,
                         world.config_.lock_clock_handoff},
          world.races_) {}

World::World(WorldConfig config)
    : config_(config),
      engine_(),
      fabric_(engine_, config.nprocs, config.latency, config.seed, config.perturb,
              config.fault),
      wakeup_perturb_(config.perturb, config.seed, /*stream=*/1) {
  DSMR_REQUIRE(config_.nprocs > 0, "world needs at least one process");
  nodes_.reserve(static_cast<std::size_t>(config_.nprocs));
  processes_.reserve(static_cast<std::size_t>(config_.nprocs));
  for (Rank r = 0; r < config_.nprocs; ++r) {
    nodes_.push_back(std::make_unique<Node>(r, *this));
    fabric_.attach(r, [nic = &nodes_.back()->nic](net::Message&& m) {
      nic->on_message(std::move(m));
    });
  }
  // The "compiler" knows the whole layout: every NIC resolves any rank's
  // addresses through the World.
  const auto resolver = [this](Rank rank, std::uint32_t offset,
                               std::uint32_t len) -> const mem::Area* {
    DSMR_REQUIRE(rank >= 0 && rank < config_.nprocs, "resolve: bad rank " << rank);
    return nodes_[static_cast<std::size_t>(rank)]->segment.find_area(offset, len);
  };
  for (auto& node : nodes_) node->nic.set_resolver(resolver);
  for (Rank r = 0; r < config_.nprocs; ++r) {
    processes_.push_back(std::make_unique<Process>(*this, r));
  }
  if (config_.print_races) {
    races_.add_observer([](const core::RaceReport& report) {
      std::fprintf(stderr, "%s\n", report.describe().c_str());
    });
  }
}

World::~World() = default;

void World::record() {
  DSMR_REQUIRE(!ran_ && recorder_ == nullptr, "World::record after run() or twice");
  recorder_ = std::make_unique<record::Recorder>(
      static_cast<std::uint32_t>(config_.nprocs), record::Backend::kSim, config_.mode,
      config_.lock_clock_handoff, config_.acked_puts);
  for (auto& node : nodes_) node->nic.set_recorder(recorder_.get());
}

const record::Log& World::log() const {
  DSMR_REQUIRE(recorder_ != nullptr, "World::log of a run that was not record()ed");
  return recorder_->log();
}

mem::GlobalAddress World::alloc(Rank home, std::uint32_t bytes, std::string name) {
  DSMR_REQUIRE(home >= 0 && home < config_.nprocs, "alloc: bad rank " << home);
  auto& node = *nodes_[static_cast<std::size_t>(home)];
  auto& segment = node.segment;
  const mem::AreaId id = segment.allocate_area(bytes, std::move(name));
  node.detector.register_area(id);
  if (recorder_ != nullptr) {
    recorder_->register_area(home, id, bytes, segment.area(id).name);
  }
  return {home, segment.area(id).offset};
}

void World::spawn(Rank rank, std::function<sim::Task(Process&)> body) {
  DSMR_REQUIRE(rank >= 0 && rank < config_.nprocs, "spawn: bad rank " << rank);
  DSMR_REQUIRE(!ran_, "spawn after run()");
  bodies_.push_back(
      std::make_unique<std::function<sim::Task(Process&)>>(std::move(body)));
  tasks_.push_back((*bodies_.back())(*processes_[static_cast<std::size_t>(rank)]));
  task_ranks_.push_back(rank);
}

RunReport World::run() {
  DSMR_REQUIRE(!ran_, "World::run may only be called once");
  ran_ = true;
  for (auto& task : tasks_) {
    engine_.schedule_at(0, [&task] { task.start(); });
  }
  const std::uint64_t fired = engine_.run(config_.max_events);

  RunReport report;
  report.end_time = engine_.now();
  report.engine_events = fired;
  report.race_count = races_.count();
  report.completed = true;
  report.hit_event_cap = fired >= config_.max_events && !engine_.idle();
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (!tasks_[i].done()) {
      report.completed = false;
      report.stuck_ranks.push_back(task_ranks_[i]);
    }
  }

  // Quiescence watchdog: a run that drained with suspended tasks (deadlock,
  // unrecoverable fault) or hit the event cap terminates with a structured
  // diagnostic — stuck rank, pending op, oldest unacked message — instead
  // of the silent orphan-frame sweep in ~Engine.
  if (!report.completed || report.hit_event_cap) {
    std::ostringstream out;
    out << "watchdog: non-quiescent termination at t=" << report.end_time << " ("
        << (report.hit_event_cap ? "event cap hit, " : "") << report.stuck_ranks.size()
        << "/" << tasks_.size() << " tasks stuck, " << engine_.live_frames()
        << " live coroutine frames)";
    for (const Rank rank : report.stuck_ranks) {
      const auto ops = nodes_[static_cast<std::size_t>(rank)]->nic.pending_ops();
      out << "\n  rank " << rank << ": "
          << (ops.empty() ? "blocked with no pending NIC op" : "");
      for (std::size_t i = 0; i < ops.size(); ++i) {
        out << (i == 0 ? "" : "; ") << ops[i];
      }
    }
    const auto unacked = fabric_.unacked();
    if (!unacked.empty()) {
      out << "\n  oldest unacked: " << unacked.front().describe();
      if (unacked.size() > 1) out << " (+" << unacked.size() - 1 << " more)";
    }
    report.diagnostic = out.str();
  }
  if (recorder_ != nullptr) {
    recorder_->finish(races_.reports(), report.completed, report.stuck_ranks);
  }
  return report;
}

mem::PublicSegment& World::segment(Rank rank) {
  DSMR_REQUIRE(rank >= 0 && rank < config_.nprocs, "segment: bad rank " << rank);
  return nodes_[static_cast<std::size_t>(rank)]->segment;
}

detect::ShardedDetector& World::detector(Rank rank) {
  DSMR_REQUIRE(rank >= 0 && rank < config_.nprocs, "detector: bad rank " << rank);
  return nodes_[static_cast<std::size_t>(rank)]->detector;
}

nic::Nic& World::nic(Rank rank) {
  DSMR_REQUIRE(rank >= 0 && rank < config_.nprocs, "nic: bad rank " << rank);
  return nodes_[static_cast<std::size_t>(rank)]->nic;
}

clocks::VectorClock& World::node_clock(Rank rank) {
  DSMR_REQUIRE(rank >= 0 && rank < config_.nprocs, "node_clock: bad rank " << rank);
  return nodes_[static_cast<std::size_t>(rank)]->clock;
}

Process& World::process(Rank rank) {
  DSMR_REQUIRE(rank >= 0 && rank < config_.nprocs, "process: bad rank " << rank);
  return *processes_[static_cast<std::size_t>(rank)];
}

std::size_t World::total_clock_bytes() const {
  std::size_t total = 0;
  for (const auto& node : nodes_) total += node->detector.storage_bytes();
  return total;
}

}  // namespace dsmr::runtime
