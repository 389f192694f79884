// The layer probes: one rank's access stream replayed on one thread into one
// public function at a time, so each layer's cost is measured alone.
#include <atomic>
#include <mutex>
#include <string>
#include <thread>

#include "clocks/vector_clock.hpp"
#include "detect/sharded_detector.hpp"
#include "mem/public_segment.hpp"
#include "net/fabric.hpp"
#include "net/message.hpp"
#include "record/recorder.hpp"
#include "workloads.hpp"

namespace dsmr::bench {
namespace {

constexpr int kRanks = 4;  ///< clock width, and the stamping threads of record.stamp_ns_4t.
constexpr std::uint32_t kPayload = 8;

}  // namespace

void run_probes(Run& run, const ProbeStream& s) {
  const std::uint64_t passes = run.smoke ? 1 : 5;
  const std::size_t n = s.area.size();
  const auto per_op = [n](std::int64_t ns, double per) {
    return static_cast<double>(ns) / (static_cast<double>(n) * per);
  };
  ScopedSpan probes(run.tracer, 0, "bench.probes", 0, 0);

  {  // mem: resolve each access's area.
    mem::PublicSegment segment(1, s.areas * s.area_bytes, kRanks);
    std::vector<std::uint32_t> offset(s.areas);
    for (std::uint32_t a = 0; a < s.areas; ++a) {
      offset[a] = segment.area(segment.allocate_area(s.area_bytes, numbered("a", a))).offset;
    }
    std::vector<double> ns;
    std::uint64_t resolved = 0;
    for (std::uint64_t pass = 0; pass < passes; ++pass) {
      ScopedSpan span(run.tracer, 0, "mem.find_area", probes.id(), pass);
      for (std::size_t i = 0; i < n; ++i) {
        const mem::Area* area = segment.find_area(offset[s.area[i]], kPayload);
        resolved += area != nullptr && area->id == s.area[i] ? 1 : 0;
      }
      ns.push_back(per_op(span.elapsed_ns(), 1));
    }
    run.check(resolved == n * passes, "probe: find_area resolves every access to its area");
    run.set("mem.find_area_ns", median(std::move(ns)));
  }

  {  // detect: shard lock + check_one + store_access, as ThreadProcess does.
    detect::ShardedDetector detector(kRanks, 1, 8);
    detector.register_areas(s.areas);
    clocks::VectorClock clock(kRanks);
    std::vector<double> ns;
    std::uint64_t races = 0;
    std::uint64_t event = 0;
    for (std::uint64_t pass = 0; pass < passes; ++pass) {
      ScopedSpan span(run.tracer, 0, "detect.check_store", probes.id(), pass);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t area = s.area[i];
        const bool is_put = s.is_put[i];
        clock.tick(0);
        std::lock_guard<std::mutex> guard(detector.shard_mutex(area));
        const core::Verdict verdict =
            detector.check_one(core::DetectorMode::kDualClock,
                               is_put ? core::AccessKind::kWrite : core::AccessKind::kRead, 0,
                               clock, area);
        races += verdict.race ? 1 : 0;
        detector.store_access(area, 0, clock, is_put, 0, ++event);
      }
      ns.push_back(per_op(span.elapsed_ns(), 1));
    }
    run.check(races == 0, "probe: one rank's program-ordered accesses never race");
    run.set("detect.check_store_ns", median(std::move(ns)));
  }

  {  // net: build the runtime's two messages per access and account them.
    clocks::VectorClock clock(kRanks);
    for (int k = 0; k < 1000; ++k) clock.tick(k % kRanks);
    std::vector<double> ns;
    std::uint64_t counted = 0;
    for (std::uint64_t pass = 0; pass < passes; ++pass) {
      net::TrafficCounters traffic;
      ScopedSpan span(run.tracer, 0, "net.account", probes.id(), pass);
      for (std::size_t i = 0; i < n; ++i) {
        const bool is_put = s.is_put[i];
        net::Message request;
        request.type = is_put ? net::MsgType::kPutCommit : net::MsgType::kGetLockedRequest;
        request.src = 0;
        request.dst = 1;
        request.area = s.area[i];
        if (is_put) request.data.resize(kPayload);
        request.clock = clock;
        traffic.record(request);
        net::Message reply;
        reply.type = is_put ? net::MsgType::kPutCommitAck : net::MsgType::kGetLockedResponse;
        reply.src = 1;
        reply.dst = 0;
        reply.area = s.area[i];
        if (!is_put) reply.data.resize(kPayload);
        reply.clock = clock;
        traffic.record(reply);
      }
      ns.push_back(per_op(span.elapsed_ns(), 2));
      counted += traffic.total_messages;
    }
    run.check(counted == 2 * n * passes, "probe: every built message is accounted");
    run.set("net.account_ns", median(std::move(ns)));
  }

  {  // record: one linearization stamp per access, 1 thread then 4 at once.
    std::vector<double> one;
    std::vector<double> four;
    for (std::uint64_t pass = 0; pass < passes; ++pass) {
      record::Recorder recorder(kRanks, record::Backend::kThread, core::DetectorMode::kOff, true,
                                true);
      ScopedSpan span(run.tracer, 0, "record.stamp", probes.id(), pass);
      for (std::size_t i = 0; i < n; ++i) {
        recorder.record_thread(0, s.is_put[i] ? record::EventKind::kThreadPut
                                              : record::EventKind::kThreadGet,
                               s.area[i], kPayload);
      }
      one.push_back(per_op(span.elapsed_ns(), 1));
    }
    for (std::uint64_t pass = 0; pass < passes; ++pass) {
      record::Recorder recorder(kRanks, record::Backend::kThread, core::DetectorMode::kOff, true,
                                true);
      ScopedSpan span(run.tracer, 0, "record.stamp_4t", probes.id(), pass);
      std::atomic<int> ready{0};
      std::atomic<bool> go{false};
      std::vector<std::int64_t> thread_ns(kRanks, 0);
      std::vector<std::thread> threads;
      for (int t = 0; t < kRanks; ++t) {
        threads.emplace_back([&, t] {
          ready.fetch_add(1);
          while (!go.load()) {
          }
          ScopedSpan mine(run.tracer, 1 + t, "record.stamp_thread", span.id(), pass);
          for (std::size_t i = 0; i < n; ++i) {
            recorder.record_thread(t, s.is_put[i] ? record::EventKind::kThreadPut
                                                  : record::EventKind::kThreadGet,
                                   s.area[i], kPayload);
          }
          thread_ns[static_cast<std::size_t>(t)] = mine.elapsed_ns();
        });
      }
      while (ready.load() < kRanks) {
      }
      go.store(true);
      for (std::thread& thread : threads) thread.join();
      double total = 0;
      for (const std::int64_t ns : thread_ns) total += static_cast<double>(ns);
      four.push_back(per_op(static_cast<std::int64_t>(total / kRanks), 1));
    }
    run.set("record.stamp_ns", median(std::move(one)));
    run.set("record.stamp_ns_4t", median(std::move(four)));
  }
}

}  // namespace dsmr::bench
