#include "explore/dpor.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "clocks/vector_clock.hpp"
#include "record/replay.hpp"
#include "util/assert.hpp"

namespace dsmr::explore {

namespace {

using clocks::VectorClock;

/// A set of ranks, bit r = rank r (the explorer REQUIREs nprocs <= 64).
using RankSet = std::uint64_t;

constexpr RankSet bit(Rank rank) { return RankSet{1} << rank; }

/// Calls `fn(rank)` for every rank in `set`, ascending.
template <typename Fn>
void for_each_rank(RankSet set, Fn&& fn) {
  while (set != 0) {
    fn(static_cast<Rank>(std::countr_zero(set)));
    set &= set - 1;
  }
}

/// The lowest rank in `set`, kInvalidRank when empty.
Rank first_rank(RankSet set) {
  return set == 0 ? kInvalidRank : static_cast<Rank>(std::countr_zero(set));
}

/// A 64-bit Bloom mask over what an executed transition touches: its area
/// (its area's home under coarse_same_home), its lock, the signal channel
/// it sends on, and the send stamp it creates or consumes. Two transitions
/// of different ranks that dependent() relates always share a bit, so a
/// disjoint pair can skip the call. Ticks touch nothing.
std::uint64_t footprint(const ExecutedStep& exec, int nprocs,
                        const IndependenceOptions& independence) {
  const auto hash_bit = [](std::uint64_t tag, std::uint64_t x, std::uint64_t y) {
    std::uint64_t h = (tag << 56) ^ (x * 0x9E3779B97F4A7C15ull) ^
                      (y * 0xC2B2AE3D27D4EB4Full);
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 32;
    return std::uint64_t{1} << (h & 63);
  };
  const Step& step = exec.step;
  switch (step.kind) {
    case StepKind::kTick:
      return 0;
    case StepKind::kAccess: {
      if (independence.coarse_same_home) {
        return hash_bit(1, static_cast<std::uint64_t>(step.area % nprocs), 0);
      }
      std::uint64_t mask = hash_bit(2, static_cast<std::uint64_t>(step.area), 0);
      if (step.lock != -1) mask |= hash_bit(3, static_cast<std::uint64_t>(step.lock), 0);
      return mask;
    }
    case StepKind::kSignal:
      return hash_bit(4, static_cast<std::uint64_t>(step.peer), step.tag) |
             hash_bit(5, static_cast<std::uint64_t>(exec.rank), exec.sent_d);
    case StepKind::kWait:
      return hash_bit(5, static_cast<std::uint64_t>(exec.matched_src), exec.matched_d);
  }
  return ~std::uint64_t{0};
}

/// One frame of the DFS path. The search is stateful: the executor and the
/// fold move forward one transition per frame and back one transition per
/// frame, so each DFS edge is executed and folded exactly once. A frame
/// keeps what it needs to step back — the fold mark taken before its
/// transition and its rank's previous happens-before clock — next to the
/// search sets: who was enabled, which choices are done, which are asleep,
/// where DPOR wants to backtrack.
struct Node {
  RankSet enabled = 0;         ///< at node creation.
  RankSet sleep = 0;           ///< inherited-filtered + completed choices.
  RankSet backtrack = 0;       ///< DPOR backtrack set (subset of enabled).
  RankSet done = 0;            ///< choices whose subtree is explored.
  Rank chosen = kInvalidRank;  ///< the choice the current path takes.
  ExecutedStep exec;           ///< `chosen`'s executed transition.
  std::uint64_t footprint = 0; ///< Bloom mask of exec (see footprint()).
  VectorClock clock;           ///< exec's HB clock over dependent().
  VectorClock pre;             ///< cv_[exec.rank] before exec.
  record::Folder::Mark mark;   ///< fold state before exec.
};

/// A verdict signature already seen, with what the report needs from it.
struct Sighting {
  record::VerdictSignature signature;
  bool racy = false;
  bool planted_hit = false;
};

class Explorer {
 public:
  Explorer(const fuzz::Program& program, const ExploreOptions& options)
      : program_(program),
        options_(options),
        flat_(flatten_program(program)),
        executor_(&flat_),
        shell_(make_witness_log(flat_, {}, options.mode, {})),
        folder_(shell_, options.mode),
        planted_(planted_area_name(program)) {
    DSMR_REQUIRE(flat_.nprocs <= 64,
                 "exploration tracks ranks in 64-bit sets; got " << flat_.nprocs);
    const auto n = static_cast<std::size_t>(flat_.nprocs);
    cv_.assign(n, VectorClock(n));
  }

  ExploreReport run() {
    while (true) {
      if (budget_tripped()) break;
      descend();
      if (!backtrack()) {
        report_.complete = report_.limit.empty();
        break;
      }
    }
    return std::move(report_);
  }

 private:
  bool budget_tripped() {
    if (report_.interleavings + report_.sleep_blocked >=
        options_.max_interleavings) {
      report_.limit = "max-interleavings";
      return true;
    }
    if (options_.max_transitions != 0 &&
        report_.transitions >= options_.max_transitions) {
      report_.limit = "max-transitions";
      return true;
    }
    return false;
  }

  /// Executes the last frame's (new) choice — backtrack() left the
  /// executor and the fold just before it — then extends the path with
  /// smallest-first choices until the run is maximal or sleep-blocked.
  void descend() {
    RankSet next_sleep = 0;
    if (!nodes_.empty()) next_sleep = execute_choice(nodes_.back(), nodes_.size() - 1);
    while (true) {
      const RankSet enabled = executor_.enabled_mask();
      if (enabled == 0) {
        record_terminal();
        return;
      }
      const Rank pick = first_rank(enabled & ~next_sleep);
      if (pick == kInvalidRank) {
        // Every enabled transition sleeps: this prefix is covered by
        // already-explored sibling orders.
        ++report_.sleep_blocked;
        return;
      }
      Node& node = nodes_.emplace_back();
      node.enabled = enabled;
      node.sleep = next_sleep;
      node.chosen = pick;
      node.done = bit(pick);
      node.backtrack = options_.dpor ? bit(pick) : enabled;
      next_sleep = execute_choice(node, nodes_.size() - 1);
    }
  }

  /// Executes and folds node.chosen, computes its HB clock, applies the
  /// DPOR backtrack rule against the prefix, and returns the child's sleep
  /// set.
  RankSet execute_choice(Node& node, std::size_t depth) {
    // Pending transitions of sleeping ranks, peeked BEFORE the choice
    // executes: the child keeps exactly the sleepers that commute with it.
    sleepers_.clear();
    if (options_.sleep_sets) {
      for_each_rank(node.sleep, [&](Rank r) {
        sleepers_.emplace_back(r, executor_.peek_executed(r));
      });
    }
    node.mark = folder_.checkpoint();
    const std::size_t first_event = executor_.events().size();
    node.exec = executor_.execute(node.chosen);
    ++report_.transitions;
    const std::vector<record::Event>& events = executor_.events();
    for (std::size_t i = first_event; i < events.size(); ++i) {
      DSMR_CHECK_MSG(folder_.step(events[i]),
                     "synthesized interleaving does not fold: " << folder_.error());
    }

    const auto p = static_cast<std::size_t>(node.exec.rank);
    node.footprint = footprint(node.exec, flat_.nprocs, options_.independence);
    node.pre = cv_[p];
    VectorClock& clock = cv_[p];
    // Only priors of another rank with an overlapping footprint can be
    // dependent. Same-rank priors are dependent by program order, but they
    // cannot add a backtrack point (that needs q != p) and their clocks are
    // already <= cv_[p]; ticks have an empty footprint and depend on no
    // other rank's transition.
    for (std::size_t j = 0; j < depth; ++j) {
      const Node& prior = nodes_[j];
      if ((prior.footprint & node.footprint) == 0 || prior.exec.rank == node.exec.rank) {
        continue;
      }
      if (!dependent(prior.exec, node.exec, flat_.nprocs, options_.independence)) {
        continue;
      }
      const auto q = static_cast<std::size_t>(prior.exec.rank);
      if (options_.dpor && prior.clock[q] > node.pre[q]) {
        add_backtrack(j, node.exec.rank, node.pre);
      }
      clock.merge_from(prior.clock);
    }
    clock.tick(node.exec.rank);
    node.clock = clock;

    RankSet child_sleep = 0;
    for (const auto& [r, pending] : sleepers_) {
      if (!dependent(pending, node.exec, flat_.nprocs, options_.independence)) {
        child_sleep |= bit(r);
      }
    }
    return child_sleep;
  }

  /// Steps the executor, the fold and the HB clocks back over `node`'s
  /// transition.
  void undo(const Node& node) {
    executor_.undo(node.exec);
    folder_.restore(node.mark);
    cv_[static_cast<std::size_t>(node.exec.rank)] = node.pre;
  }

  /// The DPOR rule: transition `p` (about to extend the path) is dependent
  /// with and concurrent to nodes_[j]'s transition, so some transition of
  /// `p`'s branch must also be tried at j. Prefer a rank whose transition
  /// at j happens-before p's branch (p itself qualifies); if none is
  /// enabled at j, conservatively backtrack into everything enabled there.
  void add_backtrack(std::size_t j, Rank p, const VectorClock& pre) {
    Node& target = nodes_[j];
    Rank candidate = kInvalidRank;
    for_each_rank(target.enabled, [&](Rank q) {
      if (candidate != kInvalidRank) return;
      if (q == p) {
        candidate = q;
        return;
      }
      const auto qi = static_cast<std::size_t>(q);
      // The frame being executed (the last one) has rank p, never q.
      for (std::size_t m = j + 1; m + 1 < nodes_.size(); ++m) {
        if (nodes_[m].exec.rank == q && nodes_[m].clock[qi] <= pre[qi]) {
          candidate = q;
          return;
        }
      }
    });
    target.backtrack |= candidate != kInvalidRank ? bit(candidate) : target.enabled;
  }

  /// Counts the maximal run into the report (and a witness, when racy and
  /// its signature is new). The signature comes from the fold the search
  /// already keeps; only a first sighting renders or scans it.
  void record_terminal() {
    const bool completed = executor_.all_done();
    ++report_.interleavings;
    if (!completed) ++report_.deadlocks;
    record::VerdictSignature signature;
    signature.completed = completed;
    signature.stuck_ranks = executor_.unfinished();
    signature.races = folder_.race_counts();
    const auto seen = std::find_if(
        sightings_.begin(), sightings_.end(),
        [&](const Sighting& sighting) { return sighting.signature == signature; });
    const bool fresh_signature = seen == sightings_.end();
    const Sighting& sighting = fresh_signature ? first_sighting(signature) : *seen;
    if (!sighting.racy) return;
    ++report_.racy_interleavings;
    if (sighting.planted_hit) ++report_.planted_flagged;
    if (fresh_signature && report_.witnesses.size() < options_.max_witnesses) {
      record::Log log = make_witness_log(flat_, executor_.events(), options_.mode,
                                         std::move(signature));
      log.metadata.emplace_back("tool", "dsmr_explore --exhaustive");
      log.metadata.emplace_back("program", fuzz::serialize(program_));
      log.metadata.emplace_back("schedule", schedule_string());
      log.metadata.emplace_back("interleaving",
                                std::to_string(report_.interleavings - 1));
      report_.witnesses.push_back(std::move(log));
    }
  }

  /// Files a signature seen for the first time: its rendering and the
  /// area names it flags go into the report.
  const Sighting& first_sighting(const record::VerdictSignature& signature) {
    Sighting& sighting = sightings_.emplace_back();
    sighting.signature = signature;
    sighting.racy = !signature.races.empty();
    report_.signatures.insert(signature.to_string());
    for (const record::RaceCount& race : signature.races) {
      const std::string& name = shell_.areas[race.area].name;
      report_.racy_areas.insert(name);
      sighting.planted_hit = sighting.planted_hit || name == planted_;
    }
    sighting.planted_hit = sighting.planted_hit && !planted_.empty();
    return sighting;
  }

  std::string schedule_string() const {
    std::string out;
    for (const Node& node : nodes_) {
      if (!out.empty()) out += ",";
      out += std::to_string(node.exec.rank);
    }
    return out;
  }

  /// Steps back out of exhausted frames, moving each completed choice into
  /// the sleep set, until a frame has an unexplored backtrack choice; that
  /// frame is left undone, ready for descend() to execute the new choice.
  /// Returns false when the whole tree is exhausted.
  bool backtrack() {
    while (!nodes_.empty()) {
      Node& node = nodes_.back();
      undo(node);
      node.sleep |= bit(node.chosen);
      RankSet open = node.backtrack & ~node.done;
      if (options_.sleep_sets) open &= ~node.sleep;
      const Rank next = first_rank(open);
      if (next != kInvalidRank) {
        node.chosen = next;
        node.done |= bit(next);
        return true;
      }
      report_.pruned_branches += static_cast<std::uint64_t>(
          std::popcount(node.enabled) - std::min(std::popcount(node.enabled),
                                                 std::popcount(node.done)));
      nodes_.pop_back();
    }
    return false;
  }

  const fuzz::Program& program_;
  const ExploreOptions& options_;
  FlatProgram flat_;
  Executor executor_;
  /// The witness header and area table, no events: what folder_ reads.
  record::Log shell_;
  record::Folder folder_;
  std::string planted_;
  std::vector<Node> nodes_;
  std::vector<VectorClock> cv_;  ///< per rank: clock of its last transition.
  std::vector<std::pair<Rank, ExecutedStep>> sleepers_;  ///< execute_choice scratch.
  std::vector<Sighting> sightings_;
  ExploreReport report_;
};

}  // namespace

ExploreReport explore_program(const fuzz::Program& program,
                              const ExploreOptions& options) {
  return Explorer(program, options).run();
}

std::string planted_area_name(const fuzz::Program& program) {
  if (program.expect == fuzz::Expectation::kClean || !program.planted) return "";
  return "fz" + std::to_string(program.planted->area);
}

Eligibility exhaustive_eligible(const fuzz::Program& program, int max_ranks,
                                std::size_t max_ops_per_rank) {
  Eligibility out;
  if (program.nprocs > max_ranks) {
    out.reason = "program has " + std::to_string(program.nprocs) +
                 " ranks, exhaustive cap is " + std::to_string(max_ranks);
    return out;
  }
  for (int r = 0; r < program.nprocs; ++r) {
    // Sleeps and computes flatten to kTick, which is independent of every
    // other transition — sleep sets collapse their orderings, so they do
    // not grow the reduced space and do not count against the gate.
    std::size_t ops = 0;
    for (const fuzz::Phase& phase : program.phases) {
      for (const fuzz::Op& op : phase.ops[static_cast<std::size_t>(r)]) {
        if (op.kind != fuzz::OpKind::kSleep && op.kind != fuzz::OpKind::kCompute) {
          ++ops;
        }
      }
    }
    if (ops > max_ops_per_rank) {
      out.reason = "rank " + std::to_string(r) + " has " +
                   std::to_string(ops) + " non-tick ops, exhaustive cap is " +
                   std::to_string(max_ops_per_rank);
      return out;
    }
  }
  out.eligible = true;
  return out;
}

std::vector<std::string> check_exhaustive(const fuzz::Program& program,
                                          const ExploreReport& report) {
  std::vector<std::string> failures;
  const std::string total = std::to_string(report.interleavings);
  if (!report.limit.empty()) {
    failures.push_back("explore-limit: budget " + report.limit +
                       " tripped after " + total +
                       " interleavings; exploration is not a certificate");
    return failures;
  }
  if (report.deadlocks != 0) {
    failures.push_back("exhaustive-deadlock: " +
                       std::to_string(report.deadlocks) + " of " + total +
                       " interleavings did not complete");
  }
  const std::string planted = planted_area_name(program);
  switch (program.expect) {
    case fuzz::Expectation::kClean:
      if (report.racy_interleavings != 0) {
        std::string areas;
        for (const std::string& name : report.racy_areas) {
          if (!areas.empty()) areas += ",";
          areas += name;
        }
        failures.push_back("exhaustive-clean-race: " + areas + " raced in " +
                           std::to_string(report.racy_interleavings) + " of " +
                           total + " interleavings of a clean program");
      }
      break;
    case fuzz::Expectation::kRacy:
      if (report.planted_flagged != report.interleavings) {
        failures.push_back("exhaustive-racy-missed: planted " + planted +
                           " flagged in only " +
                           std::to_string(report.planted_flagged) + " of " +
                           total + " interleavings");
      }
      break;
    case fuzz::Expectation::kSometimes:
      if (report.planted_flagged == 0) {
        const std::string kind =
            program.planted ? fuzz::to_string(program.planted->kind) : "?";
        failures.push_back("exhaustive-bug-missed: planted " + planted + " (" +
                           kind + ") never flagged across " + total +
                           " interleavings");
      }
      break;
  }
  return failures;
}

}  // namespace dsmr::explore
