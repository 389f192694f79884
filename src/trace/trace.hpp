// Trace rendering for external tooling: one record::Log plus the race
// reports its fold produced (record::replay_fold).
//
// The log holds only the ordering of a run (RecPlay's split, record/log.hpp)
// and the fold re-derives the verdicts, so a trace renders from exactly the
// input a replay checks. Two formats:
//  * JSONL — one line per log event, {"i","kind","a","b","c","d"} with `i`
//    the 1-based log index, then one {"kind":"race",...} line per report,
//    whose `event` and `prior_event` are the `i` of the racing accesses'
//    issue events (record::opens_access). jq / pandas friendly.
//  * Chrome Trace Event Format (chrome://tracing, Perfetto) — one row per
//    rank, one instant per event at ts = its log index (the log carries
//    ordering, not time), and one "RACE <area>" marker per report at its
//    triggering event.
#pragma once

#include <ostream>
#include <vector>

#include "core/race_report.hpp"
#include "record/log.hpp"

namespace dsmr::trace {

/// Writes one JSON line per event of `log`, then one per report.
void write_jsonl(std::ostream& out, const record::Log& log,
                 const std::vector<core::RaceReport>& reports);

/// Writes one Chrome Trace Event Format document,
/// {"displayTimeUnit":"ns","traceEvents":[...]}.
void write_chrome(std::ostream& out, const record::Log& log,
                  const std::vector<core::RaceReport>& reports);

}  // namespace dsmr::trace
