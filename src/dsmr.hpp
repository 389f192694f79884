// dsmr — umbrella header: the full public API in one include.
//
//   #include "dsmr.hpp"
//
// Layers:
//   runtime::World / runtime::Process — the simulated machine and the
//     instrumented one-sided communication API (put/get/copy, area locks,
//     signals); race reports in World::races(), the run's ordering log
//     in World::log() once World::record() is on.
//   pgas::SharedArray / pgas::Team    — distributed arrays and collectives,
//     including the §V.B one-sided reduction.
//   analysis::*                       — offline ground truth, accuracy
//     metrics and the clock-truncation ablation, all folds of a record
//     log.
//   baseline::LocksetDetector         — the Eraser-style comparison point.
//   record::Recorder / replay_fold    — the ordering log of a run and its
//     offline fold back to race reports.
//   trace::*                          — JSONL and chrome://tracing rendering
//     of a record log and its folded reports.
#pragma once

#include "analysis/ground_truth.hpp"
#include "baseline/lockset.hpp"
#include "clocks/vector_clock.hpp"
#include "core/race_report.hpp"
#include "core/rules.hpp"
#include "core/types.hpp"
#include "mem/global_address.hpp"
#include "mem/public_segment.hpp"
#include "net/fabric.hpp"
#include "net/message.hpp"
#include "net/sim_fabric.hpp"
#include "nic/lock_manager.hpp"
#include "nic/nic.hpp"
#include "pgas/collectives.hpp"
#include "pgas/distribution.hpp"
#include "pgas/shared_array.hpp"
#include "record/recorder.hpp"
#include "record/replay.hpp"
#include "runtime/process.hpp"
#include "runtime/world.hpp"
#include "sim/engine.hpp"
#include "sim/future.hpp"
#include "sim/task.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/workloads.hpp"
