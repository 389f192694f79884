// The fuzzer's program IR: a phase-structured PGAS workload with computable
// ground truth.
//
// A Program is a list of *phases*; a collective boundary (dissemination
// barrier by default, or a frontier-forming collective built from
// pgas::collectives — allreduce, gather+broadcast, gather+scatter) separates
// consecutive phases, and within a phase each rank runs a straight-line
// sequence of ops (unlocked/locked puts and gets over shared areas,
// point-to-point signal/wait edges, sleeps, local compute). The
// representation is chosen so that structural edits are always valid
// programs:
//
//  * boundaries are phase *entries*, never per-rank ops — a shrinker cannot
//    unbalance them into a deadlock (every boundary kind is executed by all
//    ranks, and every supported kind is a full happens-before frontier);
//  * a locked access is ONE op (acquire → access → release, non-nested) —
//    removing any op never orphans a lock;
//  * signal/wait are separate ops, so an edit CAN orphan a wait — but an
//    orphaned wait deadlocks, the run reports completed == false, and the
//    harness turns that into unexpected-deadlock: the behavioral predicate
//    stays the only arbiter, never a crash;
//  * sleeps/computes carry no ordering semantics beyond the local clock.
//
// Race status is decidable by construction (fuzz/generate.hpp): clean
// programs follow a per-phase ownership/lock discipline that admits no
// concurrent conflicting pair on any schedule, and planted-bug programs
// carry one of four taxonomy bugs (BugKind) whose expected manifestation —
// on every schedule, or on at least one — is part of the program's contract.
//
// The canonical text serialization (`serialize`/`parse`) is the repro-file
// payload: byte-identical for equal programs, diffable, and strict to parse.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/conformance.hpp"
#include "core/types.hpp"
#include "mem/global_address.hpp"
#include "runtime/world.hpp"
#include "sim/time.hpp"

namespace dsmr::fuzz {

enum class OpKind : std::uint8_t { kPut, kGet, kSignal, kWait, kSleep, kCompute };
const char* to_string(OpKind kind);

// Structural caps shared by validate() and parse_program(): everything the
// generator emits and serialize() writes stays parseable, so a repro file
// can never be rejected by its own --replay.
inline constexpr int kMaxProcs = 1024;
inline constexpr int kMaxAreas = 1 << 20;
inline constexpr std::uint32_t kMaxAreaBytes = 1 << 16;
inline constexpr std::size_t kMaxPhases = 4096;
inline constexpr std::size_t kMaxOpsPerRank = 1 << 20;
inline constexpr sim::Time kMaxDuration = 1'000'000'000;  ///< 1 virtual second.
/// User signal tags live below 2^56: pgas::Team packs its collective kind
/// into the top byte, so program tags can never collide with boundary tags.
inline constexpr std::uint64_t kMaxSignalTag = (1ULL << 56) - 1;

struct Op {
  OpKind kind = OpKind::kSleep;
  int area = 0;             ///< put/get target (index into the program's areas).
  bool locked = false;      ///< put/get wrapped in a NIC area lock.
  /// Which area's lock a locked access takes: -1 = the accessed area itself
  /// (the correct discipline); >= 0 names another area's lock (the
  /// wrong-lock bug shape). Only meaningful when `locked`.
  int lock = -1;
  int peer = 0;             ///< signal target rank.
  std::uint64_t tag = 0;    ///< signal/wait tag (see kMaxSignalTag).
  sim::Time duration = 0;   ///< sleep/compute length in virtual ns.

  bool operator==(const Op&) const = default;
};

/// How consecutive phases synchronize. Every kind is a full happens-before
/// frontier (each rank's phase-p+1 start is causally after every rank's
/// phase-p end), so the generator's cross-phase ownership handoffs stay
/// race-free under any boundary mix:
///  * kBarrier       — dissemination barrier (Team::barrier);
///  * kAllreduce     — binomial reduce to rank 0 + broadcast;
///  * kGatherBcast   — gather to `root`, then broadcast from `root`;
///  * kGatherScatter — gather to `root`, then scatter back from `root`.
enum class BoundaryKind : std::uint8_t { kBarrier, kAllreduce, kGatherBcast, kGatherScatter };
const char* to_string(BoundaryKind kind);

struct Boundary {
  BoundaryKind kind = BoundaryKind::kBarrier;
  int root = 0;  ///< kGatherBcast/kGatherScatter only; 0 otherwise.

  bool operator==(const Boundary&) const = default;
};

struct Phase {
  /// The boundary every rank executes before this phase's ops. Ignored (and
  /// required to be the default barrier) for phase 0, which has no entry.
  Boundary entry;
  /// The partial-barrier bug shape: this rank performs only the arrive half
  /// of the entry barrier (Team::barrier_arrive — signals sent, no waits),
  /// so peers complete the barrier but the rank gains no incoming
  /// happens-before edge. -1 = nobody skips. Only valid on kBarrier entries
  /// of phases >= 1.
  int skip_rank = -1;
  /// ops[rank] is that rank's straight-line program for the phase.
  std::vector<std::vector<Op>> ops;

  bool operator==(const Phase&) const = default;
};

/// What the generator promises about the program across all schedules:
///  * kClean     — no schedule has a race; any report or truth pair fails;
///  * kRacy      — the planted pair is concurrent on EVERY schedule; a
///                 silent schedule fails;
///  * kSometimes — the planted bug is schedule-dependent; it must manifest
///                 on at least one explored schedule (rate is measured),
///                 and schedules where ground truth is silent must produce
///                 no reports.
enum class Expectation : std::uint8_t { kClean, kRacy, kSometimes };
const char* to_string(Expectation e);

/// The planted-bug taxonomy. The first two manifest on every schedule
/// (Expectation::kRacy), the latter two are schedule-dependent
/// (Expectation::kSometimes); see fuzz/generate.hpp for each construction.
enum class BugKind : std::uint8_t {
  kDroppedEdge,     ///< one unlocked conflicting pair with no sync path.
  kWrongLock,       ///< both sides locked — but the victim takes another
                    ///< area's lock, so the critical sections don't order.
  kPartialBarrier,  ///< one rank skips (arrive-only) one barrier boundary.
  kAckWindow,       ///< producer runs ahead of the consumer's ack window;
                    ///< the race depends on home-node serve order.
};
const char* to_string(BugKind kind);
std::optional<BugKind> parse_bug_kind(const std::string& text);
std::vector<BugKind> all_bug_kinds();
/// Parses a bug-kind list: `all`, `none` (no kinds), or a comma list of
/// kind names, duplicates dropped. Unknown or empty input yields nullopt,
/// and `*error` (when non-null) names the bad entry and the known kinds.
std::optional<std::vector<BugKind>> parse_bug_kinds(const std::string& text,
                                                    std::string* error);

/// Provenance of a planted bug: the deliberately unsynchronized conflicting
/// pair. Informational — shrinking drops it (the shrunk program's status is
/// re-established behaviorally by the harness, not by this note). The
/// partial-barrier *behavior* is structural (Phase::skip_rank), not here.
struct PlantedBug {
  BugKind kind = BugKind::kDroppedEdge;
  int phase = 0;
  int area = 0;                ///< the contested area.
  /// Second area of the shape: the wrong lock's area (kWrongLock), the
  /// leak/probe area homed with `area` (kPartialBarrier, kAckWindow);
  /// -1 for kDroppedEdge.
  int aux_area = -1;
  int owner = 0;               ///< rank whose write is one side of the pair.
  int victim = 0;              ///< rank whose access is the other side.
  core::AccessKind victim_kind = core::AccessKind::kWrite;

  bool operator==(const PlantedBug&) const = default;
};

struct Program {
  int nprocs = 2;
  int areas = 1;                    ///< area a is homed at rank a % nprocs.
  std::uint32_t area_bytes = 8;
  Expectation expect = Expectation::kClean;
  std::optional<PlantedBug> planted;
  std::vector<Phase> phases;

  bool operator==(const Program&) const = default;

  /// Total ops across all phases and ranks (the shrinker's size metric).
  std::size_t op_count() const;
};

/// Canonical text form; equal programs serialize byte-identically.
std::string serialize(const Program& program);

/// Strict inverse of serialize. On malformed input returns nullopt and
/// stores a line-numbered message in *error.
std::optional<Program> parse_program(const std::string& text, std::string* error = nullptr);

/// Validates structural invariants (rank/area/peer indices in range,
/// positive sizes, one op row per rank per phase, boundary/skip legality).
/// Serialize/spawn require this.
bool validate(const Program& program, std::string* error = nullptr);

struct ProgramHandles {
  std::vector<mem::GlobalAddress> areas;
};

/// The one area layout: area `area` of an `nprocs`-rank program is homed at
/// rank area % nprocs and registered as "fz<area>" on every backend, in
/// every log and in every race report.
inline Rank area_home(int area, int nprocs) { return static_cast<Rank>(area % nprocs); }
std::string area_name(int area);

/// Registers the program's areas in that layout on a not-yet-run
/// runtime::World or runtime::ThreadWorld; handles.areas[a] is area a.
template <typename AnyWorld>
ProgramHandles alloc_areas(AnyWorld& world, const Program& program) {
  ProgramHandles handles;
  for (int a = 0; a < program.areas; ++a) {
    handles.areas.push_back(
        world.alloc(area_home(a, program.nprocs), program.area_bytes, area_name(a)));
  }
  return handles;
}

/// Allocates the program's areas and installs one coroutine per rank on a
/// not-yet-run World (world.nprocs() must equal program->nprocs).
ProgramHandles spawn_program(runtime::World& world,
                             std::shared_ptr<const Program> program);

/// Wraps a generated program as a first-class conformance scenario, so the
/// full differential cross-check (analysis::run_conformance) applies to it
/// exactly as to the built-in workloads.
analysis::Scenario to_scenario(std::shared_ptr<const Program> program,
                               std::string name);

}  // namespace dsmr::fuzz
