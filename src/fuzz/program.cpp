#include "fuzz/program.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <sstream>

#include "pgas/collectives.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"

namespace dsmr::fuzz {

const char* to_string(OpKind kind) {
  switch (kind) {
    case OpKind::kPut: return "put";
    case OpKind::kGet: return "get";
    case OpKind::kSignal: return "signal";
    case OpKind::kWait: return "wait";
    case OpKind::kSleep: return "sleep";
    case OpKind::kCompute: return "compute";
  }
  return "?";
}

const char* to_string(BoundaryKind kind) {
  switch (kind) {
    case BoundaryKind::kBarrier: return "barrier";
    case BoundaryKind::kAllreduce: return "allreduce";
    case BoundaryKind::kGatherBcast: return "gatherbcast";
    case BoundaryKind::kGatherScatter: return "gatherscatter";
  }
  return "?";
}

const char* to_string(Expectation e) {
  switch (e) {
    case Expectation::kClean: return "clean";
    case Expectation::kRacy: return "racy";
    case Expectation::kSometimes: return "sometimes";
  }
  return "?";
}

const char* to_string(BugKind kind) {
  switch (kind) {
    case BugKind::kDroppedEdge: return "dropped-edge";
    case BugKind::kWrongLock: return "wrong-lock";
    case BugKind::kPartialBarrier: return "partial-barrier";
    case BugKind::kAckWindow: return "ack-window";
  }
  return "?";
}

std::optional<BugKind> parse_bug_kind(const std::string& text) {
  for (const BugKind kind : all_bug_kinds()) {
    if (text == to_string(kind)) return kind;
  }
  return std::nullopt;
}

std::vector<BugKind> all_bug_kinds() {
  return {BugKind::kDroppedEdge, BugKind::kWrongLock, BugKind::kPartialBarrier,
          BugKind::kAckWindow};
}

std::optional<std::vector<BugKind>> parse_bug_kinds(const std::string& text,
                                                    std::string* error) {
  const auto fail = [&](const std::string& what) -> std::optional<std::vector<BugKind>> {
    if (error != nullptr) {
      std::ostringstream out;
      out << what << " (known: all, none";
      for (const BugKind kind : all_bug_kinds()) out << ", " << to_string(kind);
      out << ")";
      *error = out.str();
    }
    return std::nullopt;
  };
  if (text.empty()) return fail("empty bug-kind list");
  if (text == "all") return all_bug_kinds();
  if (text == "none") return std::vector<BugKind>{};
  std::vector<BugKind> kinds;
  std::istringstream in(text);
  std::string name;
  while (std::getline(in, name, ',')) {
    const auto kind = parse_bug_kind(name);
    if (!kind) return fail("unknown bug kind '" + name + "'");
    if (std::find(kinds.begin(), kinds.end(), *kind) == kinds.end()) kinds.push_back(*kind);
  }
  return kinds;
}

std::size_t Program::op_count() const {
  std::size_t count = 0;
  for (const auto& phase : phases) {
    for (const auto& ops : phase.ops) count += ops.size();
  }
  return count;
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

namespace {

bool is_data(OpKind kind) { return kind == OpKind::kPut || kind == OpKind::kGet; }
bool is_sync(OpKind kind) { return kind == OpKind::kSignal || kind == OpKind::kWait; }

}  // namespace

bool validate(const Program& program, std::string* error) {
  auto fail = [error](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  if (program.nprocs < 1 || program.nprocs > kMaxProcs) {
    return fail("nprocs out of range [1, " + std::to_string(kMaxProcs) + "]");
  }
  if (program.areas < 1 || program.areas > kMaxAreas) {
    return fail("areas out of range [1, " + std::to_string(kMaxAreas) + "]");
  }
  if (program.area_bytes == 0 || program.area_bytes > kMaxAreaBytes) {
    return fail("area_bytes out of range [1, " + std::to_string(kMaxAreaBytes) + "]");
  }
  if (program.phases.size() > kMaxPhases) return fail("too many phases");
  for (std::size_t p = 0; p < program.phases.size(); ++p) {
    const auto& phase = program.phases[p];
    const bool needs_root = phase.entry.kind == BoundaryKind::kGatherBcast ||
                            phase.entry.kind == BoundaryKind::kGatherScatter;
    if (p == 0 && phase.entry != Boundary{}) {
      return fail("phase 0 has no entry boundary (must stay the default)");
    }
    if (phase.entry.root < 0 || phase.entry.root >= program.nprocs ||
        (!needs_root && phase.entry.root != 0)) {
      return fail("phase " + std::to_string(p) + " boundary root out of range");
    }
    if (phase.skip_rank != -1 &&
        (p == 0 || phase.entry.kind != BoundaryKind::kBarrier ||
         phase.skip_rank < 0 || phase.skip_rank >= program.nprocs)) {
      return fail("phase " + std::to_string(p) +
                  " skip rank needs a barrier entry and a rank in range");
    }
    if (phase.ops.size() != static_cast<std::size_t>(program.nprocs)) {
      return fail("phase " + std::to_string(p) + " has " +
                  std::to_string(phase.ops.size()) + " op rows for " +
                  std::to_string(program.nprocs) + " ranks");
    }
    for (const auto& ops : phase.ops) {
      if (ops.size() > kMaxOpsPerRank) return fail("too many ops in one rank row");
      for (const auto& op : ops) {
        if (is_data(op.kind)) {
          if (op.area < 0 || op.area >= program.areas) {
            return fail("op targets area " + std::to_string(op.area) + " of " +
                        std::to_string(program.areas));
          }
          if (!op.locked && op.lock != -1) return fail("unlocked op names a lock area");
          if (op.locked && (op.lock < -1 || op.lock >= program.areas || op.lock == op.area)) {
            return fail("lock area out of range (use -1 for the accessed area)");
          }
          if (op.peer != 0 || op.tag != 0 || op.duration != 0) {
            return fail("data ops carry no peer/tag/duration");
          }
        } else if (is_sync(op.kind)) {
          if (op.kind == OpKind::kSignal &&
              (op.peer < 0 || op.peer >= program.nprocs)) {
            return fail("signal peer out of range: " + std::to_string(op.peer));
          }
          if (op.kind == OpKind::kWait && op.peer != 0) {
            return fail("wait ops carry no peer");
          }
          if (op.tag > kMaxSignalTag) return fail("signal tag out of range");
          if (op.area != 0 || op.locked || op.lock != -1 || op.duration != 0) {
            return fail("sync ops carry no area/lock/duration");
          }
        } else {
          if (op.locked || op.lock != -1 || op.area != 0 || op.peer != 0 || op.tag != 0) {
            return fail("sleep/compute ops carry no area/lock/peer/tag");
          }
          if (op.duration > kMaxDuration) return fail("duration out of range");
        }
      }
    }
  }
  if (program.planted.has_value()) {
    const auto& bug = *program.planted;
    if (bug.phase < 0 || static_cast<std::size_t>(bug.phase) >= program.phases.size() ||
        bug.area < 0 || bug.area >= program.areas || bug.owner < 0 ||
        bug.owner >= program.nprocs || bug.victim < 0 || bug.victim >= program.nprocs ||
        bug.owner == bug.victim) {
      return fail("planted-bug coordinates out of range");
    }
    const bool wants_aux = bug.kind != BugKind::kDroppedEdge;
    if (wants_aux ? (bug.aux_area < 0 || bug.aux_area >= program.areas ||
                     bug.aux_area == bug.area)
                  : bug.aux_area != -1) {
      return fail("planted-bug aux area out of range for its kind");
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Canonical serialization
// ---------------------------------------------------------------------------

std::string serialize(const Program& program) {
  std::string error;
  DSMR_REQUIRE(validate(program, &error), "serialize of invalid program: " << error);
  std::ostringstream out;
  out << "dsmr-program v2\n";
  out << "nprocs " << program.nprocs << "\n";
  out << "areas " << program.areas << "\n";
  out << "area_bytes " << program.area_bytes << "\n";
  out << "expect " << to_string(program.expect) << "\n";
  if (program.planted.has_value()) {
    const auto& bug = *program.planted;
    out << "planted " << to_string(bug.kind) << " " << bug.phase << " " << bug.area << " "
        << bug.aux_area << " " << bug.owner << " " << bug.victim << " "
        << (bug.victim_kind == core::AccessKind::kWrite ? "W" : "R") << "\n";
  }
  out << "phases " << program.phases.size() << "\n";
  for (std::size_t p = 0; p < program.phases.size(); ++p) {
    const auto& phase = program.phases[p];
    out << "phase " << p;
    switch (phase.entry.kind) {
      case BoundaryKind::kBarrier:
        if (phase.skip_rank != -1) out << " skip " << phase.skip_rank;
        break;
      case BoundaryKind::kAllreduce:
        out << " allreduce";
        break;
      case BoundaryKind::kGatherBcast:
        out << " gatherbcast " << phase.entry.root;
        break;
      case BoundaryKind::kGatherScatter:
        out << " gatherscatter " << phase.entry.root;
        break;
    }
    out << "\n";
    for (std::size_t r = 0; r < phase.ops.size(); ++r) {
      out << "rank " << r << " " << phase.ops[r].size() << "\n";
      for (const auto& op : phase.ops[r]) {
        switch (op.kind) {
          case OpKind::kPut:
          case OpKind::kGet:
            out << to_string(op.kind) << " " << op.area << " " << (op.locked ? "l" : "u");
            if (op.locked && op.lock != -1) out << " " << op.lock;
            out << "\n";
            break;
          case OpKind::kSignal:
            out << "signal " << op.peer << " " << op.tag << "\n";
            break;
          case OpKind::kWait:
            out << "wait " << op.tag << "\n";
            break;
          case OpKind::kSleep:
          case OpKind::kCompute:
            out << to_string(op.kind) << " " << op.duration << "\n";
            break;
        }
      }
    }
  }
  out << "end\n";
  return out.str();
}

namespace {

/// Splits one line into whitespace-delimited tokens.
std::vector<std::string> tokens_of(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream stream(line);
  std::string token;
  while (stream >> token) tokens.push_back(token);
  return tokens;
}

}  // namespace

std::optional<Program> parse_program(const std::string& text, std::string* error) {
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  auto fail = [error, &line_no](const std::string& what) -> std::optional<Program> {
    if (error != nullptr) {
      *error = "program line " + std::to_string(line_no) + ": " + what;
    }
    return std::nullopt;
  };
  auto next_tokens = [&in, &line, &line_no]() {
    while (std::getline(in, line)) {
      ++line_no;
      const auto toks = tokens_of(line);
      if (!toks.empty()) return toks;  // skip blank lines.
    }
    // EOF: keep line_no at the last line read so truncation errors point
    // at where the text actually stopped.
    return std::vector<std::string>{};
  };
  auto want_u64 = [](const std::string& tok) { return util::parse_u64(tok); };

  auto toks = next_tokens();
  if (toks.size() != 2 || toks[0] != "dsmr-program" || toks[1] != "v2") {
    return fail("expected header 'dsmr-program v2'");
  }

  Program program;
  program.phases.clear();
  std::uint64_t declared_phases = 0;
  // Fixed-order scalar fields.
  struct Field {
    const char* name;
    std::uint64_t min;
    std::uint64_t max;
    std::uint64_t* out;
  };
  std::uint64_t nprocs = 0, areas = 0, area_bytes = 0;
  for (const Field field :
       {Field{"nprocs", 1, static_cast<std::uint64_t>(kMaxProcs), &nprocs},
        Field{"areas", 1, static_cast<std::uint64_t>(kMaxAreas), &areas},
        Field{"area_bytes", 1, kMaxAreaBytes, &area_bytes}}) {
    toks = next_tokens();
    if (toks.size() != 2 || toks[0] != field.name) {
      return fail(std::string("expected '") + field.name + " N'");
    }
    const auto value = want_u64(toks[1]);
    if (!value || *value < field.min || *value > field.max) {
      return fail(std::string(field.name) + " out of range: " + toks[1]);
    }
    *field.out = *value;
  }
  program.nprocs = static_cast<int>(nprocs);
  program.areas = static_cast<int>(areas);
  program.area_bytes = static_cast<std::uint32_t>(area_bytes);

  toks = next_tokens();
  if (toks.size() != 2 || toks[0] != "expect") {
    return fail("expected 'expect clean|racy|sometimes'");
  }
  if (toks[1] == "clean") {
    program.expect = Expectation::kClean;
  } else if (toks[1] == "racy") {
    program.expect = Expectation::kRacy;
  } else if (toks[1] == "sometimes") {
    program.expect = Expectation::kSometimes;
  } else {
    return fail("unknown expectation '" + toks[1] + "'");
  }

  toks = next_tokens();
  if (!toks.empty() && toks[0] == "planted") {
    if (toks.size() != 8) {
      return fail("planted needs: kind phase area aux owner victim W|R");
    }
    PlantedBug bug;
    const auto kind = parse_bug_kind(toks[1]);
    if (!kind) return fail("unknown planted kind '" + toks[1] + "'");
    bug.kind = *kind;
    std::array<std::pair<int*, bool>, 5> fields = {{{&bug.phase, false},
                                                    {&bug.area, false},
                                                    {&bug.aux_area, true},
                                                    {&bug.owner, false},
                                                    {&bug.victim, false}}};
    for (std::size_t i = 0; i < fields.size(); ++i) {
      const auto value = util::parse_i64(toks[i + 2]);
      const std::int64_t min = fields[i].second ? -1 : 0;
      if (!value || *value < min || *value > kMaxAreas) {
        return fail("bad planted field '" + toks[i + 2] + "'");
      }
      *fields[i].first = static_cast<int>(*value);
    }
    if (toks[7] == "W") {
      bug.victim_kind = core::AccessKind::kWrite;
    } else if (toks[7] == "R") {
      bug.victim_kind = core::AccessKind::kRead;
    } else {
      return fail("planted kind must be W or R");
    }
    program.planted = bug;
    toks = next_tokens();
  }

  if (toks.size() != 2 || toks[0] != "phases") return fail("expected 'phases N'");
  {
    const auto value = want_u64(toks[1]);
    if (!value || *value > kMaxPhases) return fail("phase count out of range: " + toks[1]);
    declared_phases = *value;
  }

  for (std::uint64_t p = 0; p < declared_phases; ++p) {
    toks = next_tokens();
    if (toks.size() < 2 || toks[0] != "phase" || want_u64(toks[1]) != p) {
      return fail("expected 'phase " + std::to_string(p) + "'");
    }
    Phase phase;
    if (toks.size() == 2) {
      // Default barrier entry.
    } else if (toks.size() == 3 && toks[2] == "allreduce") {
      phase.entry.kind = BoundaryKind::kAllreduce;
    } else if (toks.size() == 4 &&
               (toks[2] == "gatherbcast" || toks[2] == "gatherscatter" ||
                toks[2] == "skip")) {
      const auto value = want_u64(toks[3]);
      if (!value || *value >= nprocs) {
        return fail("boundary rank out of range: " + toks[3]);
      }
      if (toks[2] == "skip") {
        phase.skip_rank = static_cast<int>(*value);
      } else {
        phase.entry.kind = toks[2] == "gatherbcast" ? BoundaryKind::kGatherBcast
                                                    : BoundaryKind::kGatherScatter;
        phase.entry.root = static_cast<int>(*value);
      }
    } else {
      return fail("expected 'phase N [allreduce|gatherbcast R|gatherscatter R|skip R]'");
    }
    for (int r = 0; r < program.nprocs; ++r) {
      toks = next_tokens();
      if (toks.size() != 3 || toks[0] != "rank" ||
          want_u64(toks[1]) != static_cast<std::uint64_t>(r)) {
        return fail("expected 'rank " + std::to_string(r) + " <op-count>'");
      }
      const auto count = want_u64(toks[2]);
      if (!count || *count > kMaxOpsPerRank) return fail("op count out of range: " + toks[2]);
      std::vector<Op> ops;
      ops.reserve(*count);
      for (std::uint64_t i = 0; i < *count; ++i) {
        toks = next_tokens();
        if (toks.empty()) return fail("unexpected end of program");
        Op op;
        if (toks[0] == "put" || toks[0] == "get") {
          const bool with_lock_area = toks.size() == 4;
          if ((toks.size() != 3 && !with_lock_area) ||
              (toks[2] != "l" && toks[2] != "u") || (with_lock_area && toks[2] != "l")) {
            return fail("expected '" + toks[0] + " <area> l|u [<lock-area>]'");
          }
          const auto area = want_u64(toks[1]);
          if (!area || *area >= static_cast<std::uint64_t>(program.areas)) {
            return fail("op area out of range: " + toks[1]);
          }
          op.kind = toks[0] == "put" ? OpKind::kPut : OpKind::kGet;
          op.area = static_cast<int>(*area);
          op.locked = toks[2] == "l";
          if (with_lock_area) {
            const auto lock = want_u64(toks[3]);
            if (!lock || *lock >= static_cast<std::uint64_t>(program.areas) ||
                *lock == *area) {
              return fail("lock area out of range: " + toks[3]);
            }
            op.lock = static_cast<int>(*lock);
          }
        } else if (toks[0] == "signal" || toks[0] == "wait") {
          const bool is_signal = toks[0] == "signal";
          if (toks.size() != (is_signal ? 3u : 2u)) {
            return fail(is_signal ? "expected 'signal <peer> <tag>'"
                                  : "expected 'wait <tag>'");
          }
          op.kind = is_signal ? OpKind::kSignal : OpKind::kWait;
          if (is_signal) {
            const auto peer = want_u64(toks[1]);
            if (!peer || *peer >= nprocs) return fail("signal peer out of range: " + toks[1]);
            op.peer = static_cast<int>(*peer);
          }
          const auto tag = want_u64(toks.back());
          if (!tag || *tag > kMaxSignalTag) return fail("tag out of range: " + toks.back());
          op.tag = *tag;
        } else if (toks[0] == "sleep" || toks[0] == "compute") {
          if (toks.size() != 2) return fail("expected '" + toks[0] + " <ns>'");
          const auto ns = want_u64(toks[1]);
          if (!ns || *ns > static_cast<std::uint64_t>(kMaxDuration)) {
            return fail("duration out of range: " + toks[1]);
          }
          op.kind = toks[0] == "sleep" ? OpKind::kSleep : OpKind::kCompute;
          op.duration = static_cast<sim::Time>(*ns);
        } else {
          return fail("unknown op '" + toks[0] + "'");
        }
        ops.push_back(op);
      }
      phase.ops.push_back(std::move(ops));
    }
    program.phases.push_back(std::move(phase));
  }

  toks = next_tokens();
  if (toks.size() != 1 || toks[0] != "end") return fail("expected trailing 'end'");
  if (!next_tokens().empty()) return fail("trailing content after 'end'");

  std::string structural;
  if (!validate(program, &structural)) return fail(structural);
  return program;
}

// ---------------------------------------------------------------------------
// World spawning
// ---------------------------------------------------------------------------

namespace {

using runtime::Process;
using runtime::World;

/// Executes one phase-entry boundary for this rank. Every kind is a full
/// happens-before frontier (see BoundaryKind); the payloads are this rank's
/// stamp — the values never affect detection, only the signal edges do.
sim::Future<void> cross_boundary(pgas::Team& team, const Phase& phase, Rank rank) {
  const Rank root = static_cast<Rank>(phase.entry.root);
  std::vector<std::byte> stamp(sizeof(std::uint64_t));
  const auto value = static_cast<std::uint64_t>(rank) + 1;
  std::memcpy(stamp.data(), &value, sizeof(value));
  switch (phase.entry.kind) {
    case BoundaryKind::kBarrier:
      if (phase.skip_rank == rank) {
        team.barrier_arrive();
      } else {
        co_await team.barrier();
      }
      break;
    case BoundaryKind::kAllreduce:
      co_await team.allreduce<std::uint64_t>(value, [](std::uint64_t a, std::uint64_t b) {
        return a + b;
      });
      break;
    case BoundaryKind::kGatherBcast: {
      auto gathered = co_await team.gather(root, std::move(stamp));
      std::vector<std::byte> sum(sizeof(std::uint64_t));
      if (rank == root) {
        std::uint64_t total = 0;
        for (const auto& slice : gathered) {
          std::uint64_t v = 0;
          std::memcpy(&v, slice.data(), std::min(slice.size(), sizeof(v)));
          total += v;
        }
        std::memcpy(sum.data(), &total, sizeof(total));
      }
      co_await team.broadcast(root, std::move(sum));
      break;
    }
    case BoundaryKind::kGatherScatter: {
      auto gathered = co_await team.gather(root, std::move(stamp));
      if (rank != root) gathered.resize(0);
      co_await team.scatter(root, std::move(gathered));
      break;
    }
  }
}

sim::Task program_task(Process& p, std::shared_ptr<const Program> program,
                       std::vector<mem::GlobalAddress> areas) {
  pgas::Team team(p);
  const auto rank = static_cast<std::size_t>(p.rank());
  // Deterministic payload stamp; the value itself never affects detection.
  std::uint64_t stamp = (static_cast<std::uint64_t>(p.rank()) + 1) << 32;
  for (std::size_t ph = 0; ph < program->phases.size(); ++ph) {
    if (ph > 0) co_await cross_boundary(team, program->phases[ph], p.rank());
    for (const Op& op : program->phases[ph].ops[rank]) {
      const auto lock_area = [&op]() {
        return static_cast<std::size_t>(op.lock == -1 ? op.area : op.lock);
      };
      switch (op.kind) {
        case OpKind::kPut: {
          if (op.locked) co_await p.lock(areas[lock_area()]);
          std::vector<std::byte> bytes(program->area_bytes, std::byte{0});
          ++stamp;
          std::memcpy(bytes.data(), &stamp, std::min(sizeof(stamp), bytes.size()));
          co_await p.put(areas[static_cast<std::size_t>(op.area)], bytes);
          if (op.locked) co_await p.unlock(areas[lock_area()]);
          break;
        }
        case OpKind::kGet:
          if (op.locked) co_await p.lock(areas[lock_area()]);
          co_await p.get(areas[static_cast<std::size_t>(op.area)], program->area_bytes);
          if (op.locked) co_await p.unlock(areas[lock_area()]);
          break;
        case OpKind::kSignal:
          p.signal(static_cast<Rank>(op.peer), op.tag);
          break;
        case OpKind::kWait:
          co_await p.wait_signal(op.tag);
          break;
        case OpKind::kSleep:
          co_await p.sleep(op.duration);
          break;
        case OpKind::kCompute:
          co_await p.compute(op.duration);
          break;
      }
    }
  }
}

}  // namespace

std::string area_name(int area) { return "fz" + std::to_string(area); }

ProgramHandles spawn_program(World& world, std::shared_ptr<const Program> program) {
  DSMR_REQUIRE(program != nullptr, "spawn_program needs a program");
  std::string error;
  DSMR_REQUIRE(validate(*program, &error), "spawn of invalid program: " << error);
  DSMR_REQUIRE(world.nprocs() == program->nprocs,
               "program generated for " << program->nprocs << " ranks, world has "
                                        << world.nprocs());
  ProgramHandles handles = alloc_areas(world, *program);
  for (Rank r = 0; r < world.nprocs(); ++r) {
    world.spawn(r, [program, areas = handles.areas](Process& p) {
      return program_task(p, program, areas);
    });
  }
  return handles;
}

analysis::Scenario to_scenario(std::shared_ptr<const Program> program,
                               std::string name) {
  DSMR_REQUIRE(program != nullptr, "to_scenario needs a program");
  analysis::Scenario scenario;
  scenario.name = std::move(name);
  scenario.description = "generated fuzz program (" + std::to_string(program->nprocs) +
                         " ranks, " + std::to_string(program->areas) + " areas, " +
                         std::to_string(program->op_count()) + " ops, expect " +
                         to_string(program->expect) + ")";
  // An always-racy planted pair is concurrent on every schedule (see
  // fuzz/generate.hpp), but conformance's own grid-level expectation only
  // distinguishes never/sometimes; the stronger "manifests everywhere" and
  // "manifests at least once" invariants live in fuzz::check_program.
  scenario.expect = program->expect == Expectation::kClean
                        ? analysis::RaceExpectation::kNever
                        : analysis::RaceExpectation::kSometimes;
  scenario.min_ranks = program->nprocs;
  scenario.spawn = [program](runtime::World& world) { spawn_program(world, program); };
  return scenario;
}

}  // namespace dsmr::fuzz
