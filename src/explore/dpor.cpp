#include "explore/dpor.hpp"

#include <algorithm>
#include <bit>
#include <span>
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

/// The wakeup trees of every frame, in one node pool. A frame's tree holds
/// the transition sequences still to be run from the frame's state: each
/// root-to-leaf path is one, siblings are kept in insertion order, which is
/// the order they are explored in, and no node has two children of one
/// rank. Only pending work is kept: the branch a frame is exploring has
/// been taken out of its tree, and its subtree handed to the next frame.
class WakeupPool {
 public:
  static constexpr std::int32_t kNone = -1;

  struct Entry {
    ExecutedStep exec;
    std::int32_t child = kNone;    ///< first child.
    std::int32_t sibling = kNone;  ///< next sibling.
  };

  const Entry& operator[](std::int32_t n) const {
    return pool_[static_cast<std::size_t>(n)];
  }

  /// Adds the path chain[0] -> chain[1] -> ... as the last child of
  /// `parent`, or as the last root of the tree at `head` when parent is
  /// kNone.
  void append(std::int32_t& head, std::int32_t parent,
              std::span<const ExecutedStep> chain) {
    std::int32_t first = kNone, last = kNone;
    for (const ExecutedStep& exec : chain) {
      const std::int32_t n = make(exec);
      if (last == kNone) {
        first = n;
      } else {
        entry(last).child = n;
      }
      last = n;
    }
    std::int32_t* link = parent == kNone ? &head : &entry(parent).child;
    while (*link != kNone) link = &entry(*link).sibling;
    *link = first;
  }

  /// Unlinks the first root of the tree at `head`, hands its children to
  /// `subtree` and returns its rank.
  Rank pop_front(std::int32_t& head, std::int32_t& subtree) {
    const std::int32_t n = head;
    const Entry& front = entry(n);
    head = front.sibling;
    subtree = front.child;
    free_.push_back(n);
    return front.exec.rank;
  }

 private:
  Entry& entry(std::int32_t n) { return pool_[static_cast<std::size_t>(n)]; }

  std::int32_t make(const ExecutedStep& exec) {
    std::int32_t n;
    if (free_.empty()) {
      n = static_cast<std::int32_t>(pool_.size());
      pool_.emplace_back();
    } else {
      n = free_.back();
      free_.pop_back();
    }
    Entry& fresh = entry(n);
    fresh.exec = exec;
    fresh.child = kNone;
    fresh.sibling = kNone;
    return n;
  }

  std::vector<Entry> pool_;
  std::vector<std::int32_t> free_;
};

constexpr std::int32_t kNoTree = WakeupPool::kNone;

/// weak_initial()'s answer when the rank is not a weak initial.
constexpr std::size_t kNotWeakInitial = static_cast<std::size_t>(-1);

/// One frame of the DFS path. The search is stateful: the executor and the
/// fold move forward one transition per frame and back one transition per
/// frame, so each DFS edge is executed and folded exactly once. A frame
/// keeps what it needs to step back — the fold mark taken before its
/// transition and its rank's previous happens-before clock — next to the
/// search sets: who was enabled, which choices were taken, which are
/// asleep, and the wakeup tree of what is still to run from here.
struct Node {
  RankSet enabled = 0;         ///< at node creation.
  RankSet sleep = 0;           ///< inherited-filtered + completed choices.
  RankSet done = 0;            ///< choices taken here.
  std::int32_t wakeup = kNoTree;  ///< pending wakeup tree (WakeupPool).
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
    nodes_.reserve(flat_.total_steps());  // one frame per step of a full run.
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
    if (report_.interleavings >= options_.max_interleavings) {
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
  /// executor and the fold just before it — then extends the path until
  /// the run is maximal: first along the wakeup subtree that choice came
  /// with, then with the smallest enabled rank that is not asleep.
  void descend() {
    RankSet next_sleep = 0;
    std::int32_t next_tree = kNoTree;
    if (!nodes_.empty()) {
      next_sleep = execute_choice(nodes_.back(), nodes_.size() - 1);
      next_tree = std::exchange(subtree_, kNoTree);
    }
    while (true) {
      const RankSet enabled = executor_.enabled_mask();
      if (enabled == 0) {
        record_terminal();
        return;
      }
      Rank pick = kInvalidRank;
      std::int32_t child_tree = kNoTree;
      if (next_tree != kNoTree) {
        pick = wakeup_.pop_front(next_tree, child_tree);
        DSMR_CHECK_MSG((enabled & ~next_sleep & bit(pick)) != 0,
                       "wakeup tree schedules rank " << pick
                                                     << ", which is disabled or asleep");
      } else {
        pick = first_rank(enabled & ~next_sleep);
        if (pick == kInvalidRank) {
          // Every enabled transition sleeps. Wakeup trees never lead here;
          // the counter is kept so that tests can pin it at zero.
          ++report_.sleep_blocked;
          return;
        }
      }
      Node& node = nodes_.emplace_back();
      node.enabled = enabled;
      node.sleep = next_sleep;
      node.chosen = pick;
      node.done = bit(pick);
      node.wakeup = next_tree;
      if (!options_.dpor) {
        // The naive baseline: every other enabled rank is a pending branch.
        for_each_rank(enabled & ~bit(pick), [&](Rank r) {
          const ExecutedStep pending = executor_.peek_executed(r);
          wakeup_.append(node.wakeup, kNoTree, {&pending, 1});
        });
      }
      next_sleep = execute_choice(node, nodes_.size() - 1);
      next_tree = child_tree;
    }
  }

  /// Executes and folds node.chosen, computes its HB clock, reverses each
  /// race it closes against the prefix (into the racing frame's wakeup
  /// tree), and returns the child's sleep set.
  RankSet execute_choice(Node& node, std::size_t depth) {
    // Pending transitions of sleeping ranks, peeked BEFORE the choice
    // executes: the child keeps exactly the sleepers that commute with it.
    sleepers_.clear();
    for_each_rank(node.sleep, [&](Rank r) {
      sleepers_.emplace_back(r, executor_.peek_executed(r));
    });
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
    // Priors newest first. Only priors of another rank with an overlapping
    // footprint can be dependent; same-rank priors are covered by node.pre
    // through program order, and ticks have an empty footprint. `clock`
    // holds the join of node.pre and of every dependent prior newer than
    // prior j, so j races with this transition directly — no third
    // transition between them in happens-before — exactly when j's own
    // component is not yet in it.
    for (std::size_t j = depth; j-- > 0;) {
      const Node& prior = nodes_[j];
      if ((prior.footprint & node.footprint) == 0 || prior.exec.rank == node.exec.rank) {
        continue;
      }
      if (!dependent(prior.exec, node.exec, flat_.nprocs, options_.independence)) {
        continue;
      }
      const auto q = static_cast<std::size_t>(prior.exec.rank);
      // A wait depends only on the signal it consumed, which enabled it:
      // that pair orders the run but cannot be reversed.
      const bool reversible = !(prior.exec.step.kind == StepKind::kSignal &&
                                node.exec.step.kind == StepKind::kWait);
      if (options_.dpor && reversible && clock[q] < prior.clock[q]) {
        reverse_race(j, depth);
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

  /// Optimal DPOR's race reversal (Abdulla, Aronis, Jonsson & Sagonas,
  /// POPL 2014): frame j's transition e races with frame d's e'. The
  /// sequence v = (transitions between them that do not happen after e).e'
  /// runs e' before e from frame j's state; it goes into frame j's wakeup
  /// tree unless a sleeping rank there is a weak initial of v — then an
  /// explored branch already covers v's traces.
  void reverse_race(std::size_t j, std::size_t d) {
    Node& target = nodes_[j];
    const auto q = static_cast<std::size_t>(target.exec.rank);
    const std::uint64_t stamp = target.clock[q];
    race_.clear();
    for (std::size_t m = j + 1; m < d; ++m) {
      if (nodes_[m].clock[q] < stamp) race_.push_back(nodes_[m].exec);
    }
    race_.push_back(nodes_[d].exec);
    bool covered = false;
    for_each_rank(target.sleep, [&](Rank r) {
      covered = covered || weak_initial(pending_at(j, r), race_) != kNotWeakInitial;
    });
    if (!covered) insert_wakeup(target.wakeup);
  }

  /// Rank `rank`'s next transition at frame j's state. A rank asleep there
  /// was enabled there, and an enabled transition stays enabled with the
  /// same match (only the rank itself pops its mailbox), so it is the
  /// rank's first transition after frame j, or still pending now.
  ExecutedStep pending_at(std::size_t j, Rank rank) const {
    for (std::size_t m = j + 1; m < nodes_.size(); ++m) {
      if (nodes_[m].exec.rank == rank) return nodes_[m].exec;
    }
    return executor_.peek_executed(rank);
  }

  /// Whether transition `x` (its rank's next) can start sequence `v`
  /// without changing v's trace. Returns the index of x in v when v holds
  /// x and nothing in v before it depends on it (x is an initial of v),
  /// v.size() when v holds no step of x's rank and x commutes with all of
  /// v (a weak initial), kNotWeakInitial otherwise.
  std::size_t weak_initial(const ExecutedStep& x, const std::vector<ExecutedStep>& v) const {
    for (std::size_t k = 0; k < v.size(); ++k) {
      if (v[k].rank != x.rank) continue;
      DSMR_ASSERT(v[k].step_index == x.step_index);
      for (std::size_t l = 0; l < k; ++l) {
        if (dependent(v[l], v[k], flat_.nprocs, options_.independence)) {
          return kNotWeakInitial;
        }
      }
      return k;
    }
    for (const ExecutedStep& step : v) {
      if (dependent(x, step, flat_.nprocs, options_.independence)) return kNotWeakInitial;
    }
    return v.size();
  }

  /// Inserts race_ into the wakeup tree at `head`: walks down, at each
  /// level following the first child whose transition is a weak initial of
  /// what is left (consuming it from race_ when race_ holds it). Reaching a
  /// leaf, or using race_ up, means a scheduled run already covers it;
  /// otherwise the rest of race_ becomes a new last branch where the walk
  /// stopped.
  void insert_wakeup(std::int32_t& head) {
    std::int32_t parent = kNoTree;
    while (!race_.empty()) {
      std::int32_t n = parent == kNoTree ? head : wakeup_[parent].child;
      if (parent != kNoTree && n == kNoTree) return;
      for (; n != kNoTree; n = wakeup_[n].sibling) {
        const std::size_t at = weak_initial(wakeup_[n].exec, race_);
        if (at == kNotWeakInitial) continue;
        if (at < race_.size()) race_.erase(race_.begin() + static_cast<std::ptrdiff_t>(at));
        break;
      }
      if (n == kNoTree) {
        wakeup_.append(head, parent, race_);
        return;
      }
      parent = n;
    }
  }

  /// Counts the maximal run into the report (and a witness, when racy and
  /// its signature is new). The signature comes from the fold the search
  /// already keeps; only a first sighting renders or scans it.
  void record_terminal() {
    const bool completed = executor_.all_done();
    ++report_.interleavings;
    if (!completed) ++report_.deadlocks;
    if (options_.on_run) {
      run_.clear();
      for (const Node& node : nodes_) run_.push_back(node.exec);
      options_.on_run(run_);
    }
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
  /// the sleep set, until a frame's wakeup tree has a pending branch; that
  /// frame is left undone, with the branch's first rank chosen and its
  /// subtree in subtree_, ready for descend(). Returns false when the whole
  /// tree is exhausted.
  bool backtrack() {
    while (!nodes_.empty()) {
      Node& node = nodes_.back();
      undo(node);
      if (options_.dpor) node.sleep |= bit(node.chosen);
      if (node.wakeup != kNoTree) {
        node.chosen = wakeup_.pop_front(node.wakeup, subtree_);
        node.done |= bit(node.chosen);
        return true;
      }
      report_.pruned_branches +=
          static_cast<std::uint64_t>(std::popcount(node.enabled & ~node.done));
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
  WakeupPool wakeup_;
  std::int32_t subtree_ = kNoTree;  ///< backtrack() -> descend(): next frame's tree.
  std::vector<std::pair<Rank, ExecutedStep>> sleepers_;  ///< execute_choice scratch.
  std::vector<ExecutedStep> race_;  ///< reverse_race scratch: the sequence v.
  std::vector<ExecutedStep> run_;   ///< record_terminal scratch for on_run.
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
    // other transition — they never race, so they do not grow the
    // reduced space and do not count against the gate.
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
