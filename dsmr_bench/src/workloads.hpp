// The five workloads. Each fills `run` with its metrics and checks; the
// untraced pass reports the end-to-end metrics, the traced pass (run.tracer
// set) the per-layer ones. README.md says why each workload exists and which
// layer metric should move which end-to-end metric.
#pragma once

#include <cstdint>
#include <vector>

#include "harness.hpp"

namespace dsmr::bench {

void thread_private(Run& run);
void thread_contended(Run& run);
void record_fold(Run& run);
void sim_sweep(Run& run);
void explore_certify(Run& run);

/// One rank's accesses as the layer probes replay them: areas homed on one
/// rank, each access a put or a get of 8 bytes.
struct ProbeStream {
  std::uint32_t areas = 0;
  std::uint32_t area_bytes = 0;
  std::vector<std::uint32_t> area;  ///< per access: area index.
  std::vector<bool> is_put;         ///< per access.
};

/// The stream thread_private's rank 0 walks, at this run's seed and sizes;
/// the probes of workloads without a private op stream of their own
/// replay it.
ProbeStream private_probe_stream(Run& run);

/// Replays `stream` on one thread into one public function at a time and
/// sets mem.find_area_ns, detect.check_store_ns, net.account_ns,
/// record.stamp_ns and record.stamp_ns_4t.
void run_probes(Run& run, const ProbeStream& stream);

}  // namespace dsmr::bench
