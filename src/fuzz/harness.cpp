#include "fuzz/harness.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <system_error>
#include <utility>

#include "explore/dpor.hpp"
#include "record/recorder.hpp"
#include "record/replay.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace dsmr::fuzz {

std::string check_name(const std::string& check) {
  return check.substr(0, check.find(':'));
}

ProgramVerdict check_program(const Program& program, const FuzzCheckOptions& options) {
  std::string error;
  DSMR_REQUIRE(validate(program, &error), "check_program: " << error);

  auto shared = std::make_shared<const Program>(program);
  const auto scenario = to_scenario(shared, options.scenario_name);

  analysis::ConformanceOptions grid;
  grid.base.nprocs = program.nprocs;
  // The generator's cleanliness discipline assumes the default detection
  // regime; a different config would need a different construction proof.
  DSMR_REQUIRE(grid.base.acked_puts && grid.base.lock_clock_handoff &&
                   grid.base.mode == core::DetectorMode::kDualClock,
               "fuzz harness requires the default WorldConfig detection settings");
  grid.first_seed = options.first_schedule_seed;
  grid.seeds = options.schedule_seeds;
  grid.threads = options.threads;
  grid.perturbations = options.perturbations;
  // Wire-enabled plans ride the conformance fault axis; the harness runs its
  // own (stricter) transparency check below, so the scenario-expectation-
  // gated one in run_conformance is off. A drop-live-reports flag on any
  // plan arms the detector-silence hook for the whole grid — that hook
  // breaks the harness's *view* of the detector, not the wire.
  bool drop_live = false;
  for (const auto& plan : options.fault_plans) {
    if (plan.drop_live_reports) drop_live = true;
    if (plan.wire_enabled()) grid.fault_plans.push_back(plan);
  }
  grid.expect_fault_transparency = false;
  // Plan-minor run order: index % nplans == 0 is the fault-free base run of
  // its (seed, perturbation) point.
  const std::size_t nplans = 1 + grid.fault_plans.size();

  ProgramVerdict verdict;
  verdict.report = analysis::run_conformance(scenario, grid);
  verdict.failures = verdict.report.disagreements;
  const auto& runs = verdict.report.runs;
  for (std::size_t i = 0; i < runs.size(); i += nplans) {
    if (!runs[i].completed) continue;
    ++verdict.completed_runs;
    if (runs[i].truth_pairs > 0) ++verdict.manifested_runs;
  }

  // Fuzz-only invariants from the construction guarantees. They quantify
  // over the fault-free grid: a fault variant is a different (but still
  // legal) schedule, held to the transparency check below instead.
  if (program.expect == Expectation::kRacy) {
    // An always-racy planted pair is concurrent on every schedule, so every
    // completed run must see it — in ground truth, in both detector modes'
    // replays, and live (modulo the test-only fault hook).
    for (std::size_t i = 0; i < runs.size(); i += nplans) {
      const auto& run = runs[i];
      if (!run.completed) continue;  // already an unexpected-deadlock failure.
      const std::uint64_t live = drop_live ? 0 : run.live_reports;
      std::ostringstream detail;
      detail << "truth=" << run.truth_pairs << " dual=" << run.dual_flagged
             << " single=" << run.single_flagged << " live=" << live;
      if (run.truth_pairs == 0) {
        // The construction guarantee itself broke: the planted pair is not
        // concurrent on this schedule. A distinct check from the detector
        // one — it indicts the generator, and it is deliberately NOT a
        // useful shrink target (every raceless racy-expected candidate
        // fires it, so minimization would degenerate to the empty program).
        verdict.failures.push_back(analysis::Divergence{
            scenario.name, run.seed, run.perturb, run.fault,
            "planted-race-vanished", detail.str(), "", "", ""});
      } else if (run.dual_flagged == 0 || run.single_flagged == 0 || live == 0) {
        // The race exists in ground truth but a detector layer stayed
        // silent. Shrinking preserves "has a race AND a layer misses it".
        verdict.failures.push_back(analysis::Divergence{
            scenario.name, run.seed, run.perturb, run.fault,
            "planted-bug-not-detected", detail.str(), "", "", ""});
      }
    }
  } else if (program.expect == Expectation::kSometimes) {
    // A schedule-dependent planted bug: silent schedules must be *clean*
    // silent (no reports of any kind), and at least one schedule in the
    // grid must manifest — the generator guarantees the base (unperturbed)
    // variant does, by construction.
    for (std::size_t i = 0; i < runs.size(); i += nplans) {
      const auto& run = runs[i];
      if (!run.completed) continue;
      const std::uint64_t live = drop_live ? 0 : run.live_reports;
      if (run.truth_pairs > 0) {
        // Manifesting schedules must be *detected*: the contested area
        // carries only the planted pair (plus accesses ordered before it),
        // so latest-access masking cannot hide it — a silent layer is a
        // detector bug, exactly as for the always-racy kinds.
        if (run.dual_flagged == 0 || run.single_flagged == 0 || live == 0) {
          std::ostringstream detail;
          detail << "truth=" << run.truth_pairs << " dual=" << run.dual_flagged
                 << " single=" << run.single_flagged << " live=" << live;
          verdict.failures.push_back(analysis::Divergence{
              scenario.name, run.seed, run.perturb, run.fault,
              "sometimes-bug-not-detected", detail.str(), "", "", ""});
        }
      } else if (live > 0 || run.dual_flagged > 0) {
        std::ostringstream detail;
        detail << "live=" << live << " dual=" << run.dual_flagged
               << " on a schedule with empty ground truth";
        verdict.failures.push_back(analysis::Divergence{
            scenario.name, run.seed, run.perturb, run.fault, "sometimes-noise",
            detail.str(), "", "", ""});
      }
    }
    if (verdict.completed_runs > 0 && verdict.manifested_runs == 0) {
      std::ostringstream detail;
      detail << "0/" << verdict.completed_runs << " schedules manifested";
      // Like planted-race-vanished, this is a grid-level generator
      // indictment and deliberately not a shrink target; anchor the
      // coordinate at the grid's first run.
      verdict.failures.push_back(analysis::Divergence{
          scenario.name, runs.front().seed, runs.front().perturb,
          runs.front().fault, "sometimes-bug-never-manifested", detail.str(),
          "", "", ""});
    }
  }

  // Fault-transparency, fuzz-strength: kClean and kRacy verdicts are
  // schedule-*invariant* by construction (zero truth pairs everywhere;
  // exactly the planted pair everywhere), so a recoverable fault plan must
  // leave the logical verdict signature — ground truth, live reports, the
  // dual-clock replay, and the racy areas — bit-identical to the fault-free
  // run of the same (seed, perturbation), not merely "still legal". The
  // signature deliberately omits the single-clock replay's pair set: its
  // read verdicts are approximate (§IV.D) and apply-order-dependent, so
  // retransmission delay legitimately flips them even on clean programs.
  // kSometimes is exempt entirely: faults re-roll schedule luck. The
  // unrecoverable-plan clean-failure invariants already fired inside
  // run_conformance.
  if (program.expect != Expectation::kSometimes) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (i % nplans == 0) continue;
      const auto& run = runs[i];
      const auto& base = runs[i - i % nplans];
      if (!run.fault.recoverable() || !run.completed || !base.completed) continue;
      if (run.signature != base.signature) {
        std::ostringstream detail;
        detail << "verdicts differ from fault-free run: base " << base.truth_pairs
               << " truth pairs/" << base.live_reports << " reports, faulted "
               << run.truth_pairs << " truth pairs/" << run.live_reports
               << " reports";
        verdict.failures.push_back(analysis::Divergence{
            scenario.name, run.seed, run.perturb, run.fault, "fault-transparency",
            detail.str(), "", "", ""});
      }
    }
  }

  // The exhaustive invariant (ROADMAP item 4): small programs get every
  // reduced interleaving of the threaded op model, turning the sampled
  // grid's rates into proofs — a kSometimes bug must EXIST somewhere in
  // the space, a clean program must have NO racy interleaving anywhere.
  if (options.exhaustive) {
    const explore::Eligibility okay = explore::exhaustive_eligible(program);
    if (!okay.eligible) {
      verdict.explore_skipped = okay.reason;
    } else {
      explore::ExploreOptions explore_options;
      explore_options.max_interleavings = options.exhaustive_max_interleavings;
      explore_options.max_witnesses = 0;  // the CLI exports its own.
      const explore::ExploreReport explored =
          explore::explore_program(program, explore_options);
      verdict.explored = true;
      verdict.explored_interleavings = explored.interleavings;
      verdict.explored_pruned = explored.pruned_branches;
      verdict.explored_racy = explored.racy_interleavings;
      verdict.explored_planted_flagged = explored.planted_flagged;
      verdict.explore_signatures = explored.signatures.size();
      for (const std::string& failure :
           explore::check_exhaustive(program, explored)) {
        const std::size_t colon = failure.find(": ");
        analysis::Divergence divergence;
        divergence.scenario = scenario.name;
        divergence.check =
            colon == std::string::npos ? failure : failure.substr(0, colon);
        divergence.detail =
            colon == std::string::npos ? "" : failure.substr(colon + 2);
        verdict.failures.push_back(std::move(divergence));
      }
    }
  }
  return verdict;
}

// ---------------------------------------------------------------------------
// Repro files
// ---------------------------------------------------------------------------

std::string serialize_repro(const Repro& repro) {
  DSMR_REQUIRE(!repro.check.empty(), "repro needs the fired check's name");
  DSMR_REQUIRE(repro.record_log.find('/') == std::string::npos &&
                   repro.record_log.find(' ') == std::string::npos,
               "record log reference must be a bare basename");
  std::ostringstream out;
  out << "dsmr-fuzz-repro v4\n";
  out << "check " << repro.check << "\n";
  // FaultPlan::to_string is canonical, so serialize → parse → serialize is
  // byte-identical and the repro round-trips the full replay coordinate.
  out << "fault " << repro.fault.to_string() << "\n";
  out << "program_seed " << repro.program_seed << "\n";
  out << "schedule_seed " << repro.schedule_seed << "\n";
  out << "perturb " << repro.perturb.min_skew_ns << " " << repro.perturb.max_skew_ns
      << " " << repro.perturb.salt << "\n";
  out << "shrunk " << (repro.shrunk ? 1 : 0) << "\n";
  out << "manifestation " << repro.manifested << " " << repro.schedules << "\n";
  // Optional companion-log reference. The basename is resolved relative to
  // the .repro file's own directory by the tools.
  if (!repro.record_log.empty()) out << "record " << repro.record_log << "\n";
  out << serialize(repro.program);
  return out.str();
}

std::optional<Repro> parse_repro(const std::string& text, std::string* error) {
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  auto fail = [error, &line_no](const std::string& what) -> std::optional<Repro> {
    if (error != nullptr) *error = "repro line " + std::to_string(line_no) + ": " + what;
    return std::nullopt;
  };
  auto next_line = [&in, &line, &line_no]() {
    if (!std::getline(in, line)) {
      line.clear();
      return false;
    }
    ++line_no;
    return true;
  };
  auto field = [&line](const std::string& key) -> std::optional<std::string> {
    if (line.rfind(key + " ", 0) != 0) return std::nullopt;
    return line.substr(key.size() + 1);
  };

  if (!next_line() || line != "dsmr-fuzz-repro v4") {
    return fail("expected header 'dsmr-fuzz-repro v4'");
  }
  Repro repro;
  if (!next_line()) return fail("truncated");
  const auto check = field("check");
  if (!check || check->empty()) return fail("expected 'check <name>'");
  repro.check = *check;

  if (!next_line()) return fail("truncated");
  const auto fault_text = field("fault");
  if (!fault_text) return fail("expected 'fault <plan>'");
  std::string fault_error;
  const auto fault = net::parse_fault_plan(*fault_text, &fault_error);
  if (!fault) return fail("bad fault plan: " + fault_error);
  repro.fault = *fault;

  using SeedField = std::pair<const char*, std::uint64_t*>;
  for (const auto& [key, out] : {SeedField{"program_seed", &repro.program_seed},
                                 SeedField{"schedule_seed", &repro.schedule_seed}}) {
    if (!next_line()) return fail("truncated");
    const auto value_text = field(key);
    if (!value_text) return fail(std::string("expected '") + key + " N'");
    const auto value = util::parse_u64(*value_text);
    if (!value) return fail(std::string("bad ") + key + " '" + *value_text + "'");
    *out = *value;
  }

  if (!next_line()) return fail("truncated");
  const auto perturb_text = field("perturb");
  if (!perturb_text) return fail("expected 'perturb <min> <max> <salt>'");
  {
    std::istringstream fields(*perturb_text);
    std::string min_text, max_text, salt_text, extra;
    if (!(fields >> min_text >> max_text >> salt_text) || (fields >> extra)) {
      return fail("perturb needs exactly: min max salt");
    }
    const auto min = util::parse_u64(min_text);
    const auto max = util::parse_u64(max_text);
    const auto salt = util::parse_u64(salt_text);
    if (!min || !max || !salt || *min > *max) return fail("bad perturb bounds");
    repro.perturb = sim::PerturbConfig{static_cast<sim::Time>(*min),
                                       static_cast<sim::Time>(*max), *salt};
  }

  if (!next_line()) return fail("truncated");
  const auto shrunk_text = field("shrunk");
  if (!shrunk_text || (*shrunk_text != "0" && *shrunk_text != "1")) {
    return fail("expected 'shrunk 0|1'");
  }
  repro.shrunk = *shrunk_text == "1";

  if (!next_line()) return fail("truncated");
  const auto manifest_text = field("manifestation");
  if (!manifest_text) return fail("expected 'manifestation <manifested> <schedules>'");
  {
    std::istringstream fields(*manifest_text);
    std::string num_text, den_text, extra;
    if (!(fields >> num_text >> den_text) || (fields >> extra)) {
      return fail("manifestation needs exactly: manifested schedules");
    }
    const auto num = util::parse_u64(num_text);
    const auto den = util::parse_u64(den_text);
    if (!num || !den || *num > *den) return fail("bad manifestation counts");
    repro.manifested = *num;
    repro.schedules = *den;
  }

  // The rest of the file is the program's own canonical serialization,
  // preceded by an optional `record <basename>` line.
  std::string program_text;
  if (next_line()) {
    const auto record = field("record");
    if (record) {
      if (record->empty() || record->find('/') != std::string::npos ||
          record->find(' ') != std::string::npos) {
        return fail("record log reference must be a bare basename");
      }
      repro.record_log = *record;
    } else {
      program_text += line + "\n";
    }
  }
  while (std::getline(in, line)) program_text += line + "\n";
  std::string program_error;
  auto program = parse_program(program_text, &program_error);
  if (!program) return fail(program_error);
  repro.program = std::move(*program);
  return repro;
}

std::vector<std::string> replay_repro(const Repro& repro, int threads) {
  FuzzCheckOptions options;
  options.first_schedule_seed = repro.schedule_seed;
  options.schedule_seeds = 1;
  options.threads = threads;
  options.perturbations = {repro.perturb};
  if (!(repro.fault == net::FaultPlan{})) options.fault_plans = {repro.fault};
  options.scenario_name = "replay";
  const auto verdict = check_program(repro.program, options);
  std::vector<std::string> fired;
  for (const auto& failure : verdict.failures) {
    const auto name = check_name(failure.check);
    if (std::find(fired.begin(), fired.end(), name) == fired.end()) {
      fired.push_back(name);
    }
  }
  return fired;
}

bool reproduces(const Repro& repro, int threads) {
  const auto fired = replay_repro(repro, threads);
  return std::find(fired.begin(), fired.end(), repro.check) != fired.end();
}

std::vector<std::byte> record_coordinate(const Program& program,
                                         std::uint64_t program_seed,
                                         std::uint64_t schedule_seed,
                                         const sim::PerturbConfig& perturb,
                                         const net::FaultPlan& fault) {
  std::string error;
  DSMR_REQUIRE(validate(program, &error), "record_coordinate: " << error);
  auto shared = std::make_shared<const Program>(program);
  const auto scenario = to_scenario(shared, "record");

  runtime::WorldConfig config;
  config.nprocs = program.nprocs;
  config.seed = schedule_seed;
  config.perturb = perturb;
  config.fault = fault;
  DSMR_REQUIRE(config.mode == core::DetectorMode::kOff ||
                   config.transport == core::Transport::kHomeSide,
               "record_coordinate: wire layout does not support recording");

  runtime::World world(config);
  record::Recorder recorder(static_cast<std::uint32_t>(config.nprocs),
                            record::Backend::kSim, config.mode,
                            config.lock_clock_handoff, config.acked_puts);
  // Self-describing provenance: a log found on disk carries everything
  // needed to re-run its coordinate, without the companion .repro.
  recorder.set_metadata("program", serialize(program));
  recorder.set_metadata("program_seed", std::to_string(program_seed));
  recorder.set_metadata("schedule_seed", std::to_string(schedule_seed));
  recorder.set_metadata("perturb", std::to_string(perturb.min_skew_ns) + " " +
                                       std::to_string(perturb.max_skew_ns) +
                                       " " + std::to_string(perturb.salt));
  recorder.set_metadata("fault", fault.to_string());
  world.set_recorder(&recorder);
  scenario.spawn(world);
  const auto report = world.run();
  recorder.finish(world.races().reports(), report.completed, report.stuck_ranks);
  return recorder.log().serialize();
}

std::string check_repro_log(const Repro& repro,
                            std::span<const std::byte> log_bytes) {
  DSMR_REQUIRE(!repro.record_log.empty(), "repro has no companion log");
  // Corruption first: a truncated or bit-flipped log fails with the parser's
  // structured diagnostic, not a raw byte mismatch.
  std::string error;
  const auto stored = record::Log::parse(log_bytes, &error);
  if (!stored) return error;
  // The embedded verdicts must fold back from the stored ordering alone.
  const std::string fold = record::check_record_replay(*stored);
  if (!fold.empty()) return fold;
  // Byte-identical cross-process replay: re-running the repro's coordinate
  // re-records the exact bytes, or the log does not belong to this repro.
  const auto fresh = record_coordinate(repro.program, repro.program_seed,
                                       repro.schedule_seed, repro.perturb,
                                       repro.fault);
  if (fresh.size() != log_bytes.size() ||
      !std::equal(fresh.begin(), fresh.end(), log_bytes.begin())) {
    std::size_t diverge = 0;
    while (diverge < std::min(fresh.size(), log_bytes.size()) &&
           fresh[diverge] == log_bytes[diverge]) {
      ++diverge;
    }
    std::ostringstream out;
    out << "[log-mismatch] re-recorded coordinate diverges from stored log at "
        << "byte " << diverge << " (stored " << log_bytes.size()
        << " bytes, re-recorded " << fresh.size() << ")";
    return out.str();
  }
  return "";
}

// ---------------------------------------------------------------------------
// Coverage signatures
// ---------------------------------------------------------------------------

const char* to_string(ScheduleMode mode) {
  switch (mode) {
    case ScheduleMode::kUniform: return "uniform";
    case ScheduleMode::kCoverage: return "coverage";
  }
  return "?";
}

std::optional<ScheduleMode> parse_schedule_mode(const std::string& text) {
  if (text == "uniform") return ScheduleMode::kUniform;
  if (text == "coverage") return ScheduleMode::kCoverage;
  return std::nullopt;
}

ScheduleMode schedule_mode_from_name(const std::string& text) {
  const auto mode = parse_schedule_mode(text);
  DSMR_REQUIRE(mode.has_value(),
               "unknown schedule mode '" << text << "' (uniform|coverage)");
  return *mode;
}

namespace {

/// Log2 magnitude bucket: 0, 1, 2, 3-4, 5-8, ... collapse to bit_width.
int bucket(std::uint64_t count) {
  return count == 0 ? 0 : std::bit_width(count);
}

}  // namespace

std::string coverage_signature(const Program& program, const ProgramVerdict& verdict) {
  std::uint64_t puts = 0, gets = 0, signals = 0, waits = 0, pauses = 0, locked = 0,
                wrong_lock = 0;
  bool skip = false;
  std::set<BoundaryKind> bounds;
  for (const auto& phase : program.phases) {
    if (phase.entry.kind != BoundaryKind::kBarrier) bounds.insert(phase.entry.kind);
    if (phase.skip_rank != -1) skip = true;
    for (const auto& ops : phase.ops) {
      for (const auto& op : ops) {
        switch (op.kind) {
          case OpKind::kPut: ++puts; break;
          case OpKind::kGet: ++gets; break;
          case OpKind::kSignal: ++signals; break;
          case OpKind::kWait: ++waits; break;
          case OpKind::kSleep:
          case OpKind::kCompute: ++pauses; break;
        }
        if (op.locked) ++locked;
        if (op.locked && op.lock != -1) ++wrong_lock;
      }
    }
  }
  std::ostringstream out;
  out << "expect=" << to_string(program.expect);
  out << ";kind=" << (program.planted ? to_string(program.planted->kind) : "-");
  out << ";ranks=" << bucket(static_cast<std::uint64_t>(program.nprocs));
  out << ";put=" << bucket(puts) << ";get=" << bucket(gets) << ";sig=" << bucket(signals)
      << ";wait=" << bucket(waits) << ";pause=" << bucket(pauses)
      << ";locked=" << bucket(locked) << ";wrong=" << (wrong_lock > 0 ? 1 : 0);
  out << ";bounds=";
  for (const auto kind : bounds) {
    switch (kind) {
      case BoundaryKind::kBarrier: break;  // implicit everywhere.
      case BoundaryKind::kAllreduce: out << "a"; break;
      case BoundaryKind::kGatherBcast: out << "b"; break;
      case BoundaryKind::kGatherScatter: out << "s"; break;
    }
  }
  out << (skip ? "!" : "");
  // Verdict path.
  const auto rate = verdict.manifestation_rate();
  out << ";manifest="
      << (verdict.manifested_runs == 0 ? "none"
          : rate >= 1.0                ? "all"
          : rate >= 0.5                ? "high"
                                       : "low");
  out << ";dead=" << (verdict.report.incomplete_runs > 0 ? 1 : 0);
  out << ";lockset=" << (verdict.report.lockset_divergences > 0 ? 1 : 0);
  out << ";recall=" << (verdict.report.min_area_recall >= 1.0 ? "full" : "partial");
  out << ";fail="
      << (verdict.failures.empty() ? "-" : check_name(verdict.failures.front().check));
  return out.str();
}

// ---------------------------------------------------------------------------
// Corpus persistence
// ---------------------------------------------------------------------------

Corpus::Corpus(const std::string& dir) : dir_(dir) {
  DSMR_REQUIRE(!dir.empty(), "corpus dir must be non-empty");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  DSMR_REQUIRE(!ec && std::filesystem::is_directory(dir_),
               "cannot open corpus dir " << dir_ << ": "
                                         << (ec ? ec.message() : "not a directory"));
  const auto path = std::filesystem::path(dir_) / "signatures.tsv";
  if (std::filesystem::exists(path)) {
    std::ifstream in(path);
    DSMR_REQUIRE(in.good(), "cannot read corpus file " << path.string());
    std::string line;
    while (std::getline(in, line)) {
      const auto tab = line.find('\t');
      const auto signature = tab == std::string::npos ? line : line.substr(0, tab);
      if (!signature.empty()) signatures_.insert(signature);
    }
  }
}

bool Corpus::add(const std::string& signature, const std::string& arm,
                 std::uint64_t seed) {
  if (!signatures_.insert(signature).second) return false;
  if (!dir_.empty()) {
    fresh_lines_.push_back(signature + "\t" + arm + "\t" + std::to_string(seed));
  }
  return true;
}

void Corpus::flush() {
  if (dir_.empty() || fresh_lines_.empty()) return;
  const auto path = std::filesystem::path(dir_) / "signatures.tsv";
  std::ofstream out(path, std::ios::app);
  DSMR_REQUIRE(out.good(), "cannot append to corpus file " << path.string());
  for (const auto& line : fresh_lines_) out << line << "\n";
  DSMR_REQUIRE(out.good(), "short write to corpus file " << path.string());
  fresh_lines_.clear();
}

// ---------------------------------------------------------------------------
// The sweep
// ---------------------------------------------------------------------------

bool plant_for_seed(std::uint64_t program_seed, double planted_fraction) {
  const auto hash = util::SplitMix64(program_seed ^ 0x5eedf00dULL).next();
  return static_cast<double>(hash >> 11) * 0x1.0p-53 < planted_fraction;
}

BugKind kind_for_seed(std::uint64_t program_seed, const std::vector<BugKind>& kinds) {
  DSMR_REQUIRE(!kinds.empty(), "kind_for_seed needs a non-empty kind set");
  const auto hash = util::SplitMix64(program_seed ^ 0xb06b06ULL).next();
  return kinds[hash % kinds.size()];
}

namespace {

/// One scheduled generation: everything a pool worker needs.
struct Draw {
  std::uint64_t program_seed = 0;
  GenConfig gen;
  std::string arm;
};

SweepOutcome run_draw(const Draw& draw, const FuzzCheckOptions& check,
                      bool verbose, const std::string& record_dir) {
  const auto program = generate_program(draw.gen);
  FuzzCheckOptions options = check;
  options.scenario_name = "fuzz-s" + std::to_string(draw.program_seed);
  const auto verdict = check_program(program, options);
  bool recorded = false;
  if (!record_dir.empty()) {
    // Always-on recording: the base coordinate's ordering log, one file per
    // executed program. Distinct filenames, so pool workers never collide.
    const auto bytes = record_coordinate(
        program, draw.program_seed, check.first_schedule_seed,
        check.perturbations.empty() ? sim::PerturbConfig{}
                                    : check.perturbations.front(),
        net::FaultPlan{});
    const std::string path =
        record_dir + "/fuzz-s" + std::to_string(draw.program_seed) + ".dsmrlog";
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    DSMR_CHECK_MSG(out.good(), "cannot write recorded log " << path);
    recorded = true;
  }

  SweepOutcome out;
  out.ran = true;
  out.program_seed = draw.program_seed;
  out.arm = draw.arm;
  out.expect = program.expect;
  if (program.planted) out.bug = program.planted->kind;
  out.schedules = verdict.report.runs.size();
  out.manifested = verdict.manifested_runs;
  out.completed = verdict.completed_runs;
  out.fault_runs = verdict.report.fault_runs;
  out.watchdog_runs = verdict.report.watchdog_runs;
  out.ops = program.op_count();
  out.signature = coverage_signature(program, verdict);
  out.recorded = recorded;
  out.explored = verdict.explored;
  out.explore_skipped = verdict.explore_skipped;
  out.explored_interleavings = verdict.explored_interleavings;
  out.explored_racy = verdict.explored_racy;
  out.failures = verdict.failures;
  if (!verdict.failures.empty()) out.program_text = serialize(program);
  if (verbose) {
    out.rendered =
        std::string(to_string(program.expect)) + ": " + verdict.report.render();
  }
  return out;
}

/// Coverage-mode bandit arm: a profile × {clean, bug kind} generator slice.
struct Arm {
  std::string profile;
  std::optional<BugKind> bug;
  std::string label;
  GenConfig gen;  ///< seed overwritten per draw.
  std::uint64_t pulls = 0;
  std::uint64_t novel = 0;
};

std::vector<Arm> make_arms(const GenConfig& base) {
  std::vector<Arm> arms;
  for (const auto& profile : profile_names()) {
    GenConfig gen = base;
    const bool known = apply_profile(profile, gen);
    DSMR_CHECK_MSG(known, "profile registry disagrees with apply_profile");
    Arm clean;
    clean.profile = profile;
    clean.label = profile + "/clean";
    clean.gen = gen;
    clean.gen.plant_bug = false;
    arms.push_back(clean);
    for (const BugKind kind : eligible_bug_kinds(gen)) {
      Arm arm;
      arm.profile = profile;
      arm.bug = kind;
      arm.label = profile + "/" + to_string(kind);
      arm.gen = gen;
      arm.gen.plant_bug = true;
      arm.gen.bug_kind = kind;
      arms.push_back(arm);
    }
  }
  return arms;
}

/// UCB1 with a novelty reward: unexplored arms first (in index order), then
/// the best mean-novelty + exploration bonus, ties to the lowest index.
std::size_t pick_arm(const std::vector<Arm>& arms, std::uint64_t total_pulls) {
  for (std::size_t i = 0; i < arms.size(); ++i) {
    if (arms[i].pulls == 0) return i;
  }
  std::size_t best = 0;
  double best_score = -1.0;
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const auto pulls = static_cast<double>(arms[i].pulls);
    const double score =
        static_cast<double>(arms[i].novel) / pulls +
        std::sqrt(2.0 * std::log(static_cast<double>(total_pulls + 1)) / pulls);
    if (score > best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

/// Fixed coverage batch size: the bandit folds rewards between batches, and
/// keeping the batch independent of the worker count keeps coverage runs
/// deterministic for a fixed config on any machine.
constexpr std::uint64_t kCoverageBatch = 8;

}  // namespace

FuzzSweepResult run_fuzz_sweep(const FuzzSweepConfig& config) {
  DSMR_REQUIRE(config.seeds.count > 0, "sweep needs at least one program");
  DSMR_REQUIRE(config.threads >= 1, "sweep needs at least one thread");
  Corpus corpus = config.corpus_dir.empty() ? Corpus{} : Corpus{config.corpus_dir};
  if (!config.record_dir.empty()) {
    std::filesystem::create_directories(config.record_dir);
  }

  FuzzSweepResult result;
  result.outcomes.resize(config.seeds.count);
  std::set<std::string> run_signatures;

  auto out_of_budget = [&config]() {
    return config.out_of_budget && config.out_of_budget();
  };
  auto fold = [&result, &corpus, &run_signatures](SweepOutcome& outcome) {
    ++result.programs;
    (outcome.bug ? result.planted : result.clean) += 1;
    result.schedules += outcome.schedules;
    result.fault_runs += outcome.fault_runs;
    result.watchdog_runs += outcome.watchdog_runs;
    if (outcome.recorded) ++result.recorded_logs;
    if (outcome.explored) ++result.explored_programs;
    if (!outcome.explore_skipped.empty()) ++result.explore_skipped_programs;
    result.explored_interleavings += outcome.explored_interleavings;
    run_signatures.insert(outcome.signature);
    outcome.novel = corpus.add(outcome.signature, outcome.arm, outcome.program_seed);
    if (outcome.novel) ++result.corpus_new;
    auto& stats = result.kinds[outcome.bug ? to_string(*outcome.bug) : "clean"];
    ++stats.programs;
    if (outcome.manifested > 0) ++stats.manifested_programs;
    stats.manifested_runs += outcome.manifested;
    stats.completed_runs += outcome.completed;
    if (!outcome.failures.empty()) ++stats.failures;
  };

  util::ThreadPool pool(config.threads);

  if (config.mode == ScheduleMode::kUniform) {
    // The classic sweep: sequential seeds, hash-planted kinds, chunked so
    // the wall-clock budget stays responsive. Each job writes its
    // pre-assigned slot; the fold below runs in seed order, so output is
    // bit-identical across thread counts.
    const std::uint64_t chunk =
        std::max<std::uint64_t>(static_cast<std::uint64_t>(config.threads) * 4, 1);
    std::uint64_t scheduled = 0;
    for (std::uint64_t next = 0; next < config.seeds.count; next += chunk) {
      if (out_of_budget()) {
        result.budget_hit = true;
        break;
      }
      const std::uint64_t end = std::min(config.seeds.count, next + chunk);
      for (std::uint64_t offset = next; offset < end; ++offset) {
        pool.submit([offset, &config, &result] {
          Draw draw;
          draw.program_seed = config.seeds.first + offset;
          draw.gen = config.base;
          draw.gen.seed = draw.program_seed;
          draw.gen.plant_bug = !config.bug_kinds.empty() &&
                               plant_for_seed(draw.program_seed, config.planted_fraction);
          if (draw.gen.plant_bug) {
            draw.gen.bug_kind = kind_for_seed(draw.program_seed, config.bug_kinds);
          }
          draw.arm = config.profile + "/" +
                     (draw.gen.plant_bug ? to_string(draw.gen.bug_kind) : "clean");
          result.outcomes[offset] =
              run_draw(draw, config.check, config.verbose, config.record_dir);
        });
      }
      pool.wait_idle();
      scheduled = end;
    }
    for (std::uint64_t offset = 0; offset < scheduled; ++offset) {
      if (result.outcomes[offset].ran) fold(result.outcomes[offset]);
    }
  } else {
    // Coverage-guided: the bandit picks (profile, kind) arms, rewards are
    // folded between fixed-size batches, and novelty is judged against the
    // loaded corpus plus everything seen this run.
    auto arms = make_arms(config.base);
    DSMR_CHECK_MSG(!arms.empty(), "coverage sweep found no arms");
    std::uint64_t total_pulls = 0;
    std::uint64_t drawn = 0;
    while (drawn < config.seeds.count) {
      if (out_of_budget()) {
        result.budget_hit = true;
        break;
      }
      const auto batch = std::min(kCoverageBatch, config.seeds.count - drawn);
      std::vector<std::size_t> picked(batch);
      for (std::uint64_t b = 0; b < batch; ++b) {
        const auto index = pick_arm(arms, total_pulls);
        picked[b] = index;
        ++arms[index].pulls;  // provisional, so one batch spreads its picks.
        ++total_pulls;
        Draw draw;
        draw.program_seed = config.seeds.first + drawn + b;
        draw.gen = arms[index].gen;
        draw.gen.seed = draw.program_seed;
        draw.arm = arms[index].label;
        pool.submit([draw, slot = drawn + b, &result, &config] {
          result.outcomes[slot] =
              run_draw(draw, config.check, config.verbose, config.record_dir);
        });
      }
      pool.wait_idle();
      for (std::uint64_t b = 0; b < batch; ++b) {
        auto& outcome = result.outcomes[drawn + b];
        fold(outcome);
        if (outcome.novel) ++arms[picked[b]].novel;
      }
      drawn += batch;
    }
  }

  result.distinct_signatures = run_signatures.size();
  corpus.flush();
  return result;
}

}  // namespace dsmr::fuzz
