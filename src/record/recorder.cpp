#include "record/recorder.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <tuple>

#include "util/assert.hpp"

namespace dsmr::record {

VerdictSignature make_signature(const AreaIndex& areas,
                                const std::vector<core::RaceReport>& reports,
                                bool completed, std::vector<Rank> stuck_ranks) {
  VerdictSignature signature;
  signature.completed = completed;
  signature.stuck_ranks = std::move(stuck_ranks);
  std::sort(signature.stuck_ranks.begin(), signature.stuck_ranks.end());

  std::map<std::tuple<std::uint64_t, Rank, int>, std::uint64_t> counts;
  for (const core::RaceReport& report : reports) {
    const std::uint64_t flat = areas.at(report.home, report.area);
    counts[{flat, report.accessor, static_cast<int>(report.kind)}] += 1;
  }
  for (const auto& [key, count] : counts) {
    signature.races.push_back(RaceCount{
        std::get<0>(key), std::get<1>(key),
        static_cast<core::AccessKind>(std::get<2>(key)), count});
  }
  return signature;
}

Recorder::Recorder(std::uint32_t nprocs, Backend backend,
                   core::DetectorMode mode, bool lock_clock_handoff,
                   bool acked_puts) {
  DSMR_REQUIRE(nprocs > 0, "recorder needs at least one process");
  log_.header.nprocs = nprocs;
  log_.header.backend = backend;
  log_.header.mode = mode;
  log_.header.lock_clock_handoff = lock_clock_handoff;
  log_.header.acked_puts = acked_puts;
  if (backend == Backend::kThread) thread_buffers_.resize(nprocs);
}

void Recorder::register_area(Rank home, std::uint32_t id, std::uint64_t size,
                             std::string name) {
  DSMR_REQUIRE(log_.events.empty() && !finished_,
               "areas must be registered before recording starts");
  areas_.add(home, id);
  log_.areas.push_back(AreaEntry{home, size, std::move(name)});
}

void Recorder::set_metadata(std::string key, std::string value) {
  for (auto& [k, v] : log_.metadata) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  log_.metadata.emplace_back(std::move(key), std::move(value));
}

void Recorder::merge_thread_buffers() {
  // Each buffer is already in stamp order, so a min-heap over the buffers'
  // next stamps streams the events into the log in stamp order. Equal
  // stamps belong to ops no sync object orders; the lower rank goes first,
  // so a re-record that reproduces the stamps reproduces the log.
  struct Head {
    std::uint64_t stamp;
    std::size_t rank;
    std::size_t next;  ///< index of this head in its buffer.
    bool operator>(const Head& other) const {
      return stamp != other.stamp ? stamp > other.stamp : rank > other.rank;
    }
  };
  std::vector<Head> heap;
  std::size_t total = 0;
  for (std::size_t rank = 0; rank < thread_buffers_.size(); ++rank) {
    const std::vector<Stamped>& events = thread_buffers_[rank].events;
    total += events.size();
    if (!events.empty()) heap.push_back(Head{events.front().stamp, rank, 0});
  }
  log_.events.reserve(log_.events.size() + total);
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    Head& head = heap.back();
    const std::vector<Stamped>& events = thread_buffers_[head.rank].events;
    log_.events.push_back(events[head.next].event);
    if (++head.next == events.size()) {
      heap.pop_back();
    } else {
      head.stamp = events[head.next].stamp;
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
  }
  thread_buffers_.clear();
}

void Recorder::finish(const std::vector<core::RaceReport>& reports,
                      bool completed, std::vector<Rank> stuck_ranks) {
  DSMR_REQUIRE(!finished_, "recorder finished twice");
  merge_thread_buffers();
  log_.live = make_signature(areas_, reports, completed, std::move(stuck_ranks));
  finished_ = true;
}

const Log& Recorder::log() const {
  DSMR_REQUIRE(finished_, "recorder log read before finish()");
  return log_;
}

}  // namespace dsmr::record
