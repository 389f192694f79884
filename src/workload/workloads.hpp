// Parameterized workload generators with known race expectations.
//
// Each spawn_* function allocates the shared data and installs one program
// per rank on a not-yet-run World. The returned handles let tests and
// benches verify results and expectations:
//
//  * random          — tunable mix of puts/gets over shared areas, with
//                      optional barriers and locks; ground truth comes from
//                      the offline analysis.
//  * master_worker   — the paper's §IV.D motivating pattern: workers put
//                      results into one master slot; the write-write race is
//                      intentional and benign, and must be signaled without
//                      aborting.
//  * stencil         — 1-D Jacobi halo exchange; barrier-synchronized phases
//                      are race-free, `buggy` drops the barriers and the
//                      halo traffic races.
//  * histogram       — remote read-modify-write on distributed bins;
//                      `locked` uses NIC area locks (race-free, no lost
//                      updates), unlocked races and may lose updates.
//  * pipeline        — a token ring ordered purely by signals and
//                      backpressure: no barriers, no locks, and still
//                      race-free (happens-before through messages);
//                      disabling backpressure introduces a write/read race.
//
// Programs are free coroutine functions taking all state by value: lambda
// captures do not survive into a coroutine frame, so nothing here captures.
#pragma once

#include <cstdint>
#include <vector>

#include "mem/global_address.hpp"
#include "pgas/shared_array.hpp"
#include "runtime/world.hpp"

namespace dsmr::workload {

// ---------------------------------------------------------------------------
// random
// ---------------------------------------------------------------------------

struct RandomConfig {
  int areas = 8;                ///< shared areas, placed round-robin.
  int ops_per_proc = 50;
  double write_fraction = 0.5;
  int barrier_every = 0;        ///< 0 = never.
  double lock_fraction = 0.0;   ///< fraction of ops wrapped in the area lock.
  std::uint64_t seed = 1;
  std::uint32_t value_bytes = 8;
};

struct RandomHandles {
  std::vector<mem::GlobalAddress> areas;
};

RandomHandles spawn_random(runtime::World& world, const RandomConfig& config);

// ---------------------------------------------------------------------------
// master_worker
// ---------------------------------------------------------------------------

struct MasterWorkerConfig {
  int tasks_per_worker = 2;
  std::uint64_t seed = 7;
};

struct MasterWorkerHandles {
  mem::GlobalAddress result;  ///< the contended slot on the master (rank 0).
};

/// Uses every rank of the world: rank 0 is the master, ranks 1..n-1 workers.
MasterWorkerHandles spawn_master_worker(runtime::World& world,
                                        const MasterWorkerConfig& config);

// ---------------------------------------------------------------------------
// stencil
// ---------------------------------------------------------------------------

struct StencilConfig {
  int cells_per_rank = 16;
  int iters = 4;
  bool buggy = false;  ///< drop the barriers: halo traffic races.
  /// Barrier-synchronize only every `barrier_period`-th iteration (1 = every
  /// iteration, the race-free default). Periods > 1 leave some phases
  /// unsynchronized: the halo accesses then race on every schedule, but
  /// whether the detector reports the race depends on the schedule, since
  /// it compares each access only with the latest one to its area.
  /// 0 behaves like `buggy` (never synchronize).
  int barrier_period = 1;
};

struct StencilHandles {
  /// Per-rank result areas holding the final cells (doubles).
  std::vector<mem::GlobalAddress> results;
  int cells_per_rank = 0;
  int iters = 0;
};

StencilHandles spawn_stencil(runtime::World& world, const StencilConfig& config);

/// Sequential reference for verification: the same Jacobi iteration on the
/// whole domain (zero boundary conditions).
std::vector<double> stencil_reference(int nprocs, const StencilConfig& config);

// ---------------------------------------------------------------------------
// histogram
// ---------------------------------------------------------------------------

struct HistogramConfig {
  int bins = 16;
  int increments_per_rank = 32;
  bool locked = false;
  std::uint64_t seed = 3;
};

struct HistogramHandles {
  pgas::SharedArray<std::uint64_t> bins;
};

HistogramHandles spawn_histogram(runtime::World& world, const HistogramConfig& config);

/// Sums the bins directly out of the segments after the run.
std::uint64_t histogram_total(runtime::World& world, const HistogramHandles& handles);

// ---------------------------------------------------------------------------
// pipeline
// ---------------------------------------------------------------------------

struct PipelineConfig {
  int tokens = 8;
  bool backpressure = true;  ///< false: deliberately racy variant.
  /// Credit window: with backpressure, a producer may run `ack_window`
  /// tokens ahead of its consumer's acks. 1 (default) is race-free; wider
  /// windows reintroduce the overwrite race on every schedule. Which of the
  /// racing accesses the detector reports depends on the schedule, since it
  /// compares each access only with the latest one to its area.
  int ack_window = 1;
};

struct PipelineHandles {
  mem::GlobalAddress sink;  ///< final accumulator on the last rank.
};

PipelineHandles spawn_pipeline(runtime::World& world, const PipelineConfig& config);

/// Expected sink value: each of `tokens` tokens is incremented once per hop
/// across ranks 1..n-1.
std::uint64_t pipeline_expected(int nprocs, const PipelineConfig& config);

}  // namespace dsmr::workload
