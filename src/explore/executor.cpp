#include "explore/executor.hpp"

#include "util/assert.hpp"

namespace dsmr::explore {

Executor::Executor(const FlatProgram* program) : program_(program) {
  DSMR_REQUIRE(program != nullptr, "executor needs a program");
  const auto n = static_cast<std::size_t>(program_->nprocs);
  cursor_.assign(n, 0);
  count_.assign(n, 0);
}

bool Executor::rank_done(Rank rank) const {
  const auto r = static_cast<std::size_t>(rank);
  return cursor_[r] >= program_->steps[r].size();
}

bool Executor::all_done() const {
  for (Rank r = 0; r < program_->nprocs; ++r) {
    if (!rank_done(r)) return false;
  }
  return true;
}

const Step* Executor::next_step(Rank rank) const {
  const auto r = static_cast<std::size_t>(rank);
  if (cursor_[r] >= program_->steps[r].size()) return nullptr;
  return &program_->steps[r][cursor_[r]];
}

bool Executor::step_enabled(Rank rank) const {
  const Step* step = next_step(rank);
  if (step == nullptr) return false;
  if (step->kind != StepKind::kWait) return true;
  const auto queue = mail_.find({rank, step->tag});
  return queue != mail_.end() && !queue->second.empty();
}

std::vector<Rank> Executor::enabled() const {
  std::vector<Rank> out;
  for (Rank r = 0; r < program_->nprocs; ++r) {
    if (step_enabled(r)) out.push_back(r);
  }
  return out;
}

std::uint64_t Executor::enabled_mask() const {
  DSMR_CHECK_MSG(program_->nprocs <= 64, "enabled_mask needs nprocs <= 64");
  std::uint64_t mask = 0;
  for (Rank r = 0; r < program_->nprocs; ++r) {
    if (step_enabled(r)) mask |= std::uint64_t{1} << r;
  }
  return mask;
}

std::vector<Rank> Executor::unfinished() const {
  std::vector<Rank> out;
  for (Rank r = 0; r < program_->nprocs; ++r) {
    if (!rank_done(r)) out.push_back(r);
  }
  return out;
}

std::pair<Rank, std::uint64_t> Executor::peek_match(Rank rank) const {
  const Step* step = next_step(rank);
  DSMR_CHECK_MSG(step != nullptr && step->kind == StepKind::kWait,
                 "peek_match on a non-wait step");
  const auto queue = mail_.find({rank, step->tag});
  DSMR_CHECK_MSG(queue != mail_.end() && !queue->second.empty(),
                 "peek_match on a blocked wait");
  return queue->second.front();
}

ExecutedStep Executor::peek_executed(Rank rank) const {
  const Step* step = next_step(rank);
  DSMR_CHECK_MSG(step != nullptr, "peek_executed past the end of rank "
                                      << rank << "'s program");
  ExecutedStep exec;
  exec.rank = rank;
  exec.step_index = cursor_[static_cast<std::size_t>(rank)];
  exec.step = *step;
  if (step->kind == StepKind::kSignal) {
    // Every event ticks the clock once, so the send stamp is the count
    // after the signal's own event.
    exec.sent_d = count_[static_cast<std::size_t>(rank)] + 1;
  } else if (step->kind == StepKind::kWait && step_enabled(rank)) {
    const auto [src, d] = peek_match(rank);
    exec.matched_src = src;
    exec.matched_d = d;
  }
  return exec;
}

ExecutedStep Executor::execute(Rank rank) {
  DSMR_CHECK_MSG(step_enabled(rank), "execute of a disabled rank " << rank);
  ExecutedStep exec = peek_executed(rank);
  const auto r = static_cast<std::size_t>(rank);
  const Step& step = exec.step;
  const auto a = static_cast<std::uint64_t>(rank);
  switch (step.kind) {
    case StepKind::kTick:
      ++count_[r];
      events_.push_back({record::EventKind::kTick, a, 0, 0, 0});
      break;
    case StepKind::kAccess: {
      if (step.lock != -1) {
        ++count_[r];
        events_.push_back({record::EventKind::kThreadLock, a,
                           static_cast<std::uint64_t>(step.lock), 0, 0});
      }
      ++count_[r];
      events_.push_back({step.write ? record::EventKind::kThreadPut
                                    : record::EventKind::kThreadGet,
                         a, static_cast<std::uint64_t>(step.area),
                         program_->area_bytes, 0});
      if (step.lock != -1) {
        ++count_[r];
        events_.push_back({record::EventKind::kThreadUnlock, a,
                           static_cast<std::uint64_t>(step.lock), 0, 0});
      }
      break;
    }
    case StepKind::kSignal:
      ++count_[r];
      events_.push_back({record::EventKind::kSignal, a,
                         static_cast<std::uint64_t>(step.peer), step.tag, 0});
      mail_[{step.peer, step.tag}].push_back({rank, count_[r]});
      DSMR_CHECK_MSG(count_[r] == exec.sent_d, "send stamp out of step");
      break;
    case StepKind::kWait: {
      auto& queue = mail_[{rank, step.tag}];
      queue.pop_front();
      ++count_[r];
      events_.push_back({record::EventKind::kWaitMatch, a,
                         static_cast<std::uint64_t>(exec.matched_src), step.tag,
                         exec.matched_d});
      break;
    }
  }
  ++cursor_[r];
  ++steps_executed_;
  return exec;
}

void Executor::undo(const ExecutedStep& exec) {
  const auto r = static_cast<std::size_t>(exec.rank);
  DSMR_CHECK_MSG(r < cursor_.size() && cursor_[r] == exec.step_index + 1,
                 "undo of a step that is not rank " << exec.rank << "'s last");
  const Step& step = exec.step;
  const std::size_t events =
      step.kind == StepKind::kAccess && step.lock != -1 ? 3 : 1;
  DSMR_CHECK_MSG(events_.size() >= events && count_[r] >= events &&
                     events_.back().a == static_cast<std::uint64_t>(exec.rank),
                 "undo of a step that is not the last one executed");
  switch (step.kind) {
    case StepKind::kTick:
    case StepKind::kAccess:
      break;
    case StepKind::kSignal: {
      auto& queue = mail_[{step.peer, step.tag}];
      DSMR_CHECK_MSG(!queue.empty() && queue.back() == std::make_pair(exec.rank, exec.sent_d),
                     "undo of a signal that is not at its mailbox's back");
      queue.pop_back();
      break;
    }
    case StepKind::kWait:
      mail_[{exec.rank, step.tag}].push_front({exec.matched_src, exec.matched_d});
      break;
  }
  count_[r] -= events;
  events_.resize(events_.size() - events);
  --cursor_[r];
  --steps_executed_;
}

std::string Executor::scheduler_digest() const {
  std::string out;
  for (std::size_t r = 0; r < cursor_.size(); ++r) {
    // Appended piece by piece: GCC 12 misreports `"r" + std::to_string(r)`
    // under -Wrestrict.
    out += 'r';
    out += std::to_string(r);
    out += '@';
    out += std::to_string(cursor_[r]);
    out += '#';
    out += std::to_string(count_[r]);
    out += '\n';
  }
  for (const auto& [key, queue] : mail_) {
    if (queue.empty()) continue;
    out += "mail r";
    out += std::to_string(key.first);
    out += " t";
    out += std::to_string(key.second);
    out += ':';
    for (const auto& [src, d] : queue) {
      out += ' ';
      out += std::to_string(src);
      out += '@';
      out += std::to_string(d);
    }
    out += "\n";
  }
  return out;
}

record::Log make_witness_log(const FlatProgram& program,
                             const std::vector<record::Event>& events,
                             core::DetectorMode mode, record::VerdictSignature live) {
  record::Log log;
  log.header.nprocs = static_cast<std::uint32_t>(program.nprocs);
  log.header.backend = record::Backend::kThread;
  log.header.mode = mode;
  log.header.lock_clock_handoff = true;
  log.header.acked_puts = true;
  for (int area = 0; area < program.areas; ++area) {
    record::AreaEntry entry;
    entry.home = static_cast<Rank>(area % program.nprocs);
    entry.size = program.area_bytes;
    entry.name = "fz" + std::to_string(area);
    log.areas.push_back(entry);
  }
  log.events = events;
  log.live = std::move(live);
  return log;
}

}  // namespace dsmr::explore
