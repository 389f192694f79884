#include "trace/trace.hpp"

#include "util/json.hpp"

namespace dsmr::trace {

namespace {

using record::EventKind;

void write_clock(std::ostream& out, const clocks::VectorClock& clock) {
  out << "[";
  for (std::size_t i = 0; i < clock.size(); ++i) {
    if (i > 0) out << ",";
    out << clock[i];
  }
  out << "]";
}

/// Whether field b of `kind` is a flat area index.
bool names_area(EventKind kind) {
  return kind != EventKind::kTick && kind != EventKind::kSignal &&
         kind != EventKind::kWaitMatch;
}

}  // namespace

void write_jsonl(std::ostream& out, const record::Log& log,
                 const std::vector<core::RaceReport>& reports) {
  std::size_t index = 0;
  for (const record::Event& event : log.events) {
    out << "{\"i\":" << ++index << ",\"kind\":\"" << record::to_string(event.kind)
        << "\",\"a\":" << event.a << ",\"b\":" << event.b << ",\"c\":" << event.c
        << ",\"d\":" << event.d << "}\n";
  }
  for (const core::RaceReport& report : reports) {
    out << "{\"kind\":\"race\",\"id\":" << report.id
        << ",\"accessor\":" << report.accessor << ",\"op\":\""
        << core::to_string(report.kind) << "\",\"home\":" << report.home
        << ",\"area\":" << report.area << ",\"area_name\":\""
        << util::json_escape(report.area_name) << "\",\"event\":" << report.event_id
        << ",\"prior_event\":" << report.prior_event_id << ",\"accessor_clock\":";
    write_clock(out, report.accessor_clock);
    out << ",\"stored_clock\":";
    write_clock(out, report.stored_clock);
    out << ",\"against\":\""
        << (report.against == core::ComparedAgainst::kW ? "W" : "V") << "\"}\n";
  }
}

void write_chrome(std::ostream& out, const record::Log& log,
                  const std::vector<core::RaceReport>& reports) {
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  const char* sep = "\n";
  for (std::uint32_t rank = 0; rank < log.header.nprocs; ++rank) {
    out << sep << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << rank
        << ",\"args\":{\"name\":\"P" << rank << "\"}}";
    sep = ",\n";
  }
  std::size_t index = 0;
  for (const record::Event& event : log.events) {
    std::string name = record::to_string(event.kind);
    if (names_area(event.kind) && event.b < log.areas.size()) {
      name += " " + log.areas[event.b].name;
    }
    out << sep << "{\"name\":\"" << util::json_escape(name)
        << "\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << ++index
        << ",\"pid\":0,\"tid\":" << event.a << ",\"args\":{\"b\":" << event.b
        << ",\"c\":" << event.c << ",\"d\":" << event.d << "}}";
    sep = ",\n";
  }
  for (const core::RaceReport& report : reports) {
    out << sep << "{\"name\":\"RACE " << util::json_escape(report.area_name)
        << "\",\"cat\":\"race\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << report.event_id
        << ",\"pid\":0,\"tid\":" << report.accessor << ",\"args\":{\"op\":\""
        << core::to_string(report.kind) << "\",\"against\":\""
        << (report.against == core::ComparedAgainst::kW ? "W" : "V")
        << "\",\"accessor_clock\":\"" << report.accessor_clock.to_string()
        << "\",\"stored_clock\":\"" << report.stored_clock.to_string() << "\"}}";
    sep = ",\n";
  }
  out << "\n]}\n";
}

}  // namespace dsmr::trace
