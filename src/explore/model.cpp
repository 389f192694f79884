#include "explore/model.hpp"

#include <numeric>

#include "util/assert.hpp"

namespace dsmr::explore {

std::string Step::to_string() const {
  switch (kind) {
    case StepKind::kTick:
      return "tick";
    case StepKind::kAccess: {
      std::string out = write ? "put" : "get";
      out += "(a" + std::to_string(area);
      if (lock != -1) out += ",L" + std::to_string(lock);
      out += ")";
      return out;
    }
    case StepKind::kSignal:
      return "signal(r" + std::to_string(peer) + ",t" + std::to_string(tag) + ")";
    case StepKind::kWait:
      return "wait(t" + std::to_string(tag) + ")";
  }
  return "?";
}

std::size_t FlatProgram::total_steps() const {
  return std::accumulate(
      steps.begin(), steps.end(), std::size_t{0},
      [](std::size_t acc, const std::vector<Step>& s) { return acc + s.size(); });
}

namespace {

/// Boundary-barrier tags: top byte distinct from user tags (< 2^56, see
/// fuzz::kMaxSignalTag) and from pgas::Team's collective range (kinds 1..5
/// in the top byte). Phase index and round share the low bits without
/// collision: phases < 4096 (12 bits, shifted past the round) and rounds
/// < 10 for fuzz::kMaxProcs = 1024.
constexpr std::uint64_t kBoundaryTagBase = 0xB5ULL << 56;

std::uint64_t boundary_signal_tag(std::size_t phase, std::uint32_t round) {
  return kBoundaryTagBase | (static_cast<std::uint64_t>(phase) << 8) | round;
}

/// The dissemination barrier for phase `ph`, rank `r`, with the same
/// sequential send-round-k / wait-round-k structure as pgas::Team::barrier.
void flatten_boundary(const fuzz::Phase& phase, std::size_t ph, int nprocs,
                      Rank r, std::vector<Step>& out) {
  const bool arrive_only =
      phase.entry.kind == fuzz::BoundaryKind::kBarrier && phase.skip_rank == r;
  for (std::uint32_t round = 0; (1 << round) < nprocs; ++round) {
    const int dist = 1 << round;
    Step send;
    send.kind = StepKind::kSignal;
    send.peer = static_cast<Rank>((static_cast<int>(r) + dist) % nprocs);
    send.tag = boundary_signal_tag(ph, round);
    out.push_back(send);
    if (!arrive_only) {
      Step wait;
      wait.kind = StepKind::kWait;
      wait.tag = boundary_signal_tag(ph, round);
      out.push_back(wait);
    }
  }
}

}  // namespace

FlatProgram flatten_program(const fuzz::Program& program) {
  std::string error;
  DSMR_REQUIRE(fuzz::validate(program, &error), "flatten of invalid program: " << error);
  FlatProgram flat;
  flat.nprocs = program.nprocs;
  flat.areas = program.areas;
  flat.area_bytes = program.area_bytes;
  flat.steps.resize(static_cast<std::size_t>(program.nprocs));
  for (Rank r = 0; r < program.nprocs; ++r) {
    std::vector<Step>& out = flat.steps[static_cast<std::size_t>(r)];
    for (std::size_t ph = 0; ph < program.phases.size(); ++ph) {
      const fuzz::Phase& phase = program.phases[ph];
      if (ph > 0) flatten_boundary(phase, ph, program.nprocs, r, out);
      for (const fuzz::Op& op : phase.ops[static_cast<std::size_t>(r)]) {
        Step step;
        switch (op.kind) {
          case fuzz::OpKind::kPut:
          case fuzz::OpKind::kGet:
            step.kind = StepKind::kAccess;
            step.write = op.kind == fuzz::OpKind::kPut;
            step.area = op.area;
            step.lock = op.locked ? (op.lock == -1 ? op.area : op.lock) : -1;
            break;
          case fuzz::OpKind::kSignal:
            step.kind = StepKind::kSignal;
            step.peer = static_cast<Rank>(op.peer);
            step.tag = op.tag;
            break;
          case fuzz::OpKind::kWait:
            step.kind = StepKind::kWait;
            step.tag = op.tag;
            break;
          case fuzz::OpKind::kSleep:
          case fuzz::OpKind::kCompute:
            step.kind = StepKind::kTick;
            step.compute = op.kind == fuzz::OpKind::kCompute;
            step.duration = static_cast<std::uint64_t>(op.duration);
            break;
        }
        out.push_back(step);
      }
    }
  }
  return flat;
}

bool dependent(const ExecutedStep& a, const ExecutedStep& b, int nprocs,
               const IndependenceOptions& options) {
  if (a.rank == b.rank) return true;  // program order.
  const Step& sa = a.step;
  const Step& sb = b.step;
  if (sa.kind == StepKind::kTick || sb.kind == StepKind::kTick) return false;

  if (sa.kind == StepKind::kAccess && sb.kind == StepKind::kAccess) {
    if (options.coarse_same_home) {
      return fuzz::area_home(sa.area, nprocs) == fuzz::area_home(sb.area, nprocs);
    }
    if (sa.area == sb.area) return true;
    if (sa.lock != -1 && sa.lock == sb.lock) return true;  // grant order shows.
    return false;
  }

  if (sa.kind == StepKind::kSignal && sb.kind == StepKind::kSignal) {
    // FIFO append order to the same (dst, tag) mailbox decides which send a
    // later wait consumes.
    return sa.peer == sb.peer && sa.tag == sb.tag;
  }

  // A wait is dependent with exactly the signal it consumed: swapping them
  // changes what the wait matches (or whether it is enabled at all). A
  // co-enabled signal to the same channel behind an older queued send
  // commutes — the wait pops the pre-existing front in both orders.
  if (sa.kind == StepKind::kSignal && sb.kind == StepKind::kWait) {
    return b.matched_src == a.rank && b.matched_d == a.sent_d;
  }
  if (sa.kind == StepKind::kWait && sb.kind == StepKind::kSignal) {
    return a.matched_src == b.rank && a.matched_d == b.sent_d;
  }

  // Wait/wait of different ranks: distinct mailboxes (keyed by receiver).
  return false;
}

}  // namespace dsmr::explore
