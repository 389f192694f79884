// dsmr_replay: the offline half of record/replay (ROADMAP item 3).
//
// Takes a recorded ordering log (record/log.hpp) and, entirely offline:
//
//  * verifies integrity and prints the structured diagnostic on corrupt,
//    truncated or version-mismatched input (exit 2 — the log is disk input,
//    never trusted);
//  * folds the event stream through the full detector (`replay_fold`) and
//    prints the re-derived verdicts — by default at the recorded mode, or at
//    a stronger one via --mode (the production story: record at `off`, fold
//    at `dual`);
//  * checks the fold against the embedded live-verdict footer
//    (`check_record_replay`) and exits 1 on divergence;
//  * renders a traffic ledger (events and payload bytes per event kind) and,
//    on request, the recorded total order and the folded race reports as
//    JSONL or a chrome://tracing view (trace/trace.hpp).
//
//   dsmr_replay --log FILE [--mode header|off|single|dual] [--json FILE]
//               [--trace-jsonl FILE] [--trace-chrome FILE] [--quiet]
//
// Exit status (docs/testing.md, "Exit codes"): 0 verdicts reproduced, 1 fold
// diverges from the footer, 2 a bad command line or an unreadable/corrupt log.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "record/log.hpp"
#include "record/replay.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

using namespace dsmr;

namespace {

/// Payload bytes an event carries (the `c` field of data-moving kinds).
std::uint64_t payload_bytes(const record::Event& event) {
  switch (event.kind) {
    case record::EventKind::kPutApply:
    case record::EventKind::kGetApply:
    case record::EventKind::kThreadPut:
    case record::EventKind::kThreadGet:
      return event.c;
    default:
      return 0;
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::string path = cli.get_string("log", "");
  const std::string mode_text =
      cli.get_choice("mode", "header", {"header", "off", "single", "dual"});
  util::OutputFile& json = cli.get_output_file("json");
  util::OutputFile& jsonl = cli.get_output_file("trace-jsonl");
  util::OutputFile& chrome = cli.get_output_file("trace-chrome");
  const bool quiet = cli.get_flag("quiet");
  cli.check(!path.empty(), "needs --log FILE");
  if (!cli.ok()) return 2;

  // Read-time input: the log is disk input, never trusted. The structured
  // diagnostic ([truncated], [bad-magic], [bad-version],
  // [checksum-mismatch], ...) is the contract for corrupt input.
  std::string error;
  const auto bytes = record::read_file(path, &error);
  const auto log = bytes ? record::Log::parse(*bytes, &error) : std::nullopt;
  if (!log) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return 2;
  }

  core::DetectorMode fold_mode = log->header.mode;
  if (mode_text == "off") {
    fold_mode = core::DetectorMode::kOff;
  } else if (mode_text == "single") {
    fold_mode = core::DetectorMode::kSingleClock;
  } else if (mode_text == "dual") {
    fold_mode = core::DetectorMode::kDualClock;
  }

  std::printf("--- dsmr_replay: %s ---\n", path.c_str());
  std::printf("recorded: backend=%s nprocs=%u mode=%s handoff=%d ack=%d, "
              "%zu area(s), %zu event(s)\n",
              record::to_string(log->header.backend).c_str(),
              log->header.nprocs, core::to_string(log->header.mode),
              log->header.lock_clock_handoff ? 1 : 0,
              log->header.acked_puts ? 1 : 0, log->areas.size(),
              log->events.size());
  for (const auto& [key, value] : log->metadata) {
    if (quiet) break;
    // Multi-line values (program text) indent under their key.
    if (value.find('\n') == std::string::npos) {
      std::printf("meta %s: %s\n", key.c_str(), value.c_str());
    } else {
      std::printf("meta %s: (%zu bytes)\n", key.c_str(), value.size());
    }
  }

  // Traffic ledger: the wire-equivalent cost of the recorded run, straight
  // from the ordering stream.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> ledger;
  std::uint64_t total_bytes = 0;
  for (const auto& event : log->events) {
    auto& [count, event_bytes] = ledger[record::to_string(event.kind)];
    ++count;
    event_bytes += payload_bytes(event);
    total_bytes += payload_bytes(event);
  }
  util::Table table({"kind", "events", "payload-bytes"});
  for (const auto& [kind, stats] : ledger) {
    table.add_row({kind, util::Table::fmt_int(stats.first),
                   util::Table::fmt_int(stats.second)});
  }
  table.add_row({"total", util::Table::fmt_int(log->events.size()),
                 util::Table::fmt_int(total_bytes)});
  std::printf("%s", table.render().c_str());

  // The fold: re-derive verdicts offline at the selected detector mode.
  const record::ReplayResult folded = record::replay_fold(*log, fold_mode);
  if (!folded.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), folded.error.c_str());
    return 2;
  }
  std::printf("fold at mode=%s: %llu event(s), %llu check(s), %zu race "
              "report(s)\n",
              core::to_string(fold_mode),
              static_cast<unsigned long long>(folded.events),
              static_cast<unsigned long long>(folded.checks),
              folded.reports.size());
  if (!quiet) {
    for (const auto& race : folded.signature.races) {
      std::printf("race: area %s rank=%d %s x%llu\n",
                  race.area < log->areas.size()
                      ? log->areas[race.area].name.c_str()
                      : std::to_string(race.area).c_str(),
                  race.accessor, core::to_string(race.kind),
                  static_cast<unsigned long long>(race.count));
    }
  }
  std::printf("verdict: %s\n", folded.signature.to_string().c_str());
  std::printf("footer:  %s\n", log->live.to_string().c_str());

  if (jsonl.out.is_open()) {
    trace::write_jsonl(jsonl.out, *log, folded.reports);
    std::printf("wrote %s\n", jsonl.path.c_str());
  }
  if (chrome.out.is_open()) {
    trace::write_chrome(chrome.out, *log, folded.reports);
    std::printf("wrote %s\n", chrome.path.c_str());
  }

  // The divergence gate: fold at the RECORDED mode must reproduce the
  // embedded live footer bit-for-bit, whatever --mode was used for display.
  const std::string divergence = record::check_record_replay(*log);

  if (json.out.is_open()) {
    json.out << "{\"tool\":\"dsmr_replay\",\"log\":\"" << util::json_escape(path)
             << "\",\"backend\":\"" << record::to_string(log->header.backend)
             << "\",\"nprocs\":" << log->header.nprocs << ",\"recorded_mode\":\""
             << core::to_string(log->header.mode) << "\",\"fold_mode\":\""
             << core::to_string(fold_mode) << "\",\"events\":" << log->events.size()
             << ",\"checks\":" << folded.checks
             << ",\"payload_bytes\":" << total_bytes
             << ",\"races\":" << folded.signature.races.size()
             << ",\"completed\":" << (log->live.completed ? "true" : "false")
             << ",\"diverged\":" << (divergence.empty() ? "false" : "true") << "}\n";
    std::printf("wrote %s\n", json.path.c_str());
  }
  if (!divergence.empty()) {
    std::printf("DIVERGENCE: %s\n", divergence.c_str());
    return 1;
  }
  std::printf("replay reproduces the recorded verdicts\n");
  return 0;
}
