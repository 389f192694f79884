#include "explore/executor.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace dsmr::explore {

Executor::Executor(const FlatProgram* program) : program_(program) {
  DSMR_REQUIRE(program != nullptr, "executor needs a program");
  const auto n = static_cast<std::size_t>(program_->nprocs);
  cursor_.assign(n, 0);
  count_.assign(n, 0);
  // Room for a full run (a step logs at most three events), so the search
  // never regrows these.
  const std::size_t steps = program_->total_steps();
  events_.reserve(3 * steps);
  mail_.reserve(steps);
  taken_.reserve(steps);
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
  return step->kind != StepKind::kWait || first_mail(rank, step->tag) != nullptr;
}

const Executor::Mail* Executor::first_mail(Rank rank, std::uint64_t tag) const {
  for (const Mail& mail : mail_) {
    if (mail.dst == rank && mail.tag == tag) return &mail;
  }
  return nullptr;
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
  } else if (step->kind == StepKind::kWait) {
    if (const Mail* mail = first_mail(rank, step->tag)) {
      exec.matched_src = mail->src;
      exec.matched_d = mail->stamp;
    }
  }
  return exec;
}

ExecutedStep Executor::execute(Rank rank) {
  ExecutedStep exec = peek_executed(rank);
  DSMR_CHECK_MSG(exec.step.kind != StepKind::kWait || exec.matched_src != -1,
                 "execute of a disabled rank " << rank);
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
      mail_.push_back({step.peer, step.tag, rank, count_[r]});
      DSMR_CHECK_MSG(count_[r] == exec.sent_d, "send stamp out of step");
      break;
    case StepKind::kWait: {
      const std::size_t at = static_cast<std::size_t>(first_mail(rank, step.tag) - mail_.data());
      mail_.erase(mail_.begin() + static_cast<std::ptrdiff_t>(at));
      taken_.push_back(at);
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
      DSMR_CHECK_MSG(!mail_.empty() && mail_.back().dst == step.peer &&
                         mail_.back().tag == step.tag && mail_.back().src == exec.rank &&
                         mail_.back().stamp == exec.sent_d,
                     "undo of a signal that is not the last one sent");
      mail_.pop_back();
      break;
    }
    case StepKind::kWait: {
      DSMR_CHECK_MSG(!taken_.empty(), "undo of a wait that consumed nothing");
      const std::size_t at = taken_.back();
      taken_.pop_back();
      mail_.insert(mail_.begin() + static_cast<std::ptrdiff_t>(at),
                   Mail{exec.rank, step.tag, exec.matched_src, exec.matched_d});
      break;
    }
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
  // Mailbox order, send order within a mailbox.
  std::vector<Mail> mail = mail_;
  const auto box = [](const Mail& m) { return std::make_pair(m.dst, m.tag); };
  std::stable_sort(mail.begin(), mail.end(),
                   [&](const Mail& x, const Mail& y) { return box(x) < box(y); });
  for (std::size_t i = 0; i < mail.size(); ++i) {
    if (i == 0 || box(mail[i - 1]) != box(mail[i])) {
      if (i > 0) out += '\n';
      out += "mail r";
      out += std::to_string(mail[i].dst);
      out += " t";
      out += std::to_string(mail[i].tag);
      out += ':';
    }
    out += ' ';
    out += std::to_string(mail[i].src);
    out += '@';
    out += std::to_string(mail[i].stamp);
  }
  if (!mail.empty()) out += '\n';
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
