// Tests for the trace renderer: a recorded log plus its folded race reports
// rendered as JSONL (field names and order pinned per line kind) and as a
// Chrome Trace Event Format document, byte-identically across fixed-seed
// runs.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "record/replay.hpp"
#include "runtime/process.hpp"
#include "runtime/world.hpp"
#include "trace/trace.hpp"
#include "workload/workloads.hpp"

namespace dsmr::trace {
namespace {

using runtime::Process;
using runtime::World;
using runtime::WorldConfig;

/// Structural JSON sanity: balanced braces/brackets outside strings.
bool balanced_json(const std::string& text) {
  int depth = 0, array_depth = 0;
  bool in_string = false, escaped = false;
  for (const char c : text) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '"') {
      in_string = !in_string;
      continue;
    }
    if (in_string) continue;
    if (c == '{') ++depth;
    if (c == '}') --depth;
    if (c == '[') ++array_depth;
    if (c == ']') --array_depth;
    if (depth < 0 || array_depth < 0) return false;
  }
  return depth == 0 && array_depth == 0 && !in_string;
}

/// Top-level keys of a one-line JSON object, in order of appearance.
/// (Values may contain arrays but no nested objects — scanner tracks both.)
std::vector<std::string> top_level_keys(const std::string& line) {
  std::vector<std::string> keys;
  int object_depth = 0, array_depth = 0;
  bool in_string = false, escaped = false;
  std::string current;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (escaped) {
      escaped = false;
      if (in_string) current += c;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '"') {
      if (!in_string) {
        in_string = true;
        current.clear();
      } else {
        in_string = false;
        // A key iff the next non-string char is ':' at object depth 1.
        if (object_depth == 1 && array_depth == 0 && i + 1 < line.size() &&
            line[i + 1] == ':') {
          keys.push_back(current);
        }
      }
      continue;
    }
    if (in_string) {
      current += c;
      continue;
    }
    if (c == '{') ++object_depth;
    if (c == '}') --object_depth;
    if (c == '[') ++array_depth;
    if (c == ']') --array_depth;
  }
  return keys;
}

/// Extracts an integer field's value; asserts presence.
long long int_field(const std::string& line, const std::string& name) {
  const std::string needle = "\"" + name + "\":";
  const auto pos = line.find(needle);
  EXPECT_NE(pos, std::string::npos) << name << " missing in " << line;
  if (pos == std::string::npos) return 0;
  return std::stoll(line.substr(pos + needle.size()));
}

std::size_t count_occurrences(const std::string& text, const std::string& needle) {
  std::size_t count = 0, pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    ++count;
    pos += needle.size();
  }
  return count;
}

/// One recorded sim run, folded: the renderer's whole input.
struct RecordedRun {
  explicit RecordedRun(WorldConfig config, const std::function<void(World&)>& spawn)
      : world(config) {
    world.record();
    spawn(world);
    const auto report = world.run();
    EXPECT_TRUE(report.completed);
    folded = record::replay_fold(log(), log().header.mode);
    EXPECT_TRUE(folded.ok()) << folded.error;
  }

  const record::Log& log() const { return world.log(); }
  std::string jsonl() const {
    std::ostringstream out;
    write_jsonl(out, log(), folded.reports);
    return out.str();
  }
  std::string chrome() const {
    std::ostringstream out;
    write_chrome(out, log(), folded.reports);
    return out.str();
  }

  World world;
  record::ReplayResult folded;
};

/// The fixed-seed golden schedule: master_worker's benign §IV.D race.
RecordedRun golden_run() {
  WorldConfig config;
  config.nprocs = 3;
  config.seed = 42;
  return RecordedRun(config, [](World& world) {
    workload::MasterWorkerConfig wl;
    wl.tasks_per_worker = 2;
    workload::spawn_master_worker(world, wl);
  });
}

/// Two unordered puts to one area whose name needs JSON escaping.
RecordedRun odd_name_run() {
  WorldConfig config;
  config.nprocs = 3;
  config.latency.jitter_ns = 0;
  return RecordedRun(config, [](World& world) {
    const auto x = world.alloc(1, 8, "x\"y\\z");
    world.spawn(0, [x](Process& p) -> sim::Task {
      co_await p.put_value(x, std::uint64_t{1});
    });
    world.spawn(2, [x](Process& p) -> sim::Task {
      co_await p.sleep(20'000);
      co_await p.put_value(x, std::uint64_t{2});
    });
  });
}

TEST(Trace, JsonlFieldNamesAndOrderArePinnedPerLineKind) {
  const RecordedRun run = golden_run();
  ASSERT_GT(run.log().events.size(), 0u);
  ASSERT_GT(run.folded.reports.size(), 0u);  // the benign §IV.D race.

  // The pinned schemas. Changing the renderer's fields is allowed — but
  // only together with this test, the docs and every downstream consumer.
  const std::vector<std::string> event_schema{"i", "kind", "a", "b", "c", "d"};
  const std::vector<std::string> race_schema{
      "kind",      "id",          "accessor",    "op",             "home",
      "area",      "area_name",   "event",       "prior_event",    "accessor_clock",
      "stored_clock", "against"};

  std::istringstream in(run.jsonl());
  std::string line;
  std::size_t event_lines = 0, race_lines = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(balanced_json(line)) << line;
    if (line.rfind("{\"i\":", 0) == 0) {
      EXPECT_EQ(top_level_keys(line), event_schema) << line;
      EXPECT_EQ(race_lines, 0u) << "event line after a race line: " << line;
      // `i` is the 1-based log index.
      EXPECT_EQ(int_field(line, "i"), static_cast<long long>(++event_lines));
    } else {
      EXPECT_EQ(top_level_keys(line), race_schema) << line;
      // A race names the event that raised it by its `i`.
      EXPECT_GE(int_field(line, "event"), 1);
      EXPECT_LE(int_field(line, "event"), static_cast<long long>(event_lines));
      ++race_lines;
    }
  }
  EXPECT_EQ(event_lines, run.log().events.size());
  EXPECT_EQ(race_lines, run.folded.reports.size());
}

TEST(Trace, ChromeHasOneRowPerRankOneInstantPerEventOneMarkerPerRace) {
  const auto check = [](const RecordedRun& run) {
    ASSERT_GT(run.folded.reports.size(), 0u);
    const std::string doc = run.chrome();
    EXPECT_TRUE(balanced_json(doc)) << doc;
    EXPECT_EQ(doc.rfind("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", 0), 0u);
    EXPECT_EQ(count_occurrences(doc, "\"name\":\"thread_name\""),
              run.log().header.nprocs);
    for (std::uint32_t rank = 0; rank < run.log().header.nprocs; ++rank) {
      EXPECT_NE(doc.find("\"args\":{\"name\":\"P" + std::to_string(rank) + "\"}"),
                std::string::npos);
    }
    EXPECT_EQ(count_occurrences(doc, "\"cat\":\"event\",\"ph\":\"i\""),
              run.log().events.size());
    EXPECT_EQ(count_occurrences(doc, "\"cat\":\"race\",\"ph\":\"i\""),
              run.folded.reports.size());
    EXPECT_EQ(count_occurrences(doc, "\"name\":\"RACE "), run.folded.reports.size());
    // Each marker sits at its triggering event's index.
    for (const core::RaceReport& report : run.folded.reports) {
      EXPECT_NE(doc.find("\"cat\":\"race\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" +
                         std::to_string(report.event_id) + ","),
                std::string::npos);
    }
  };
  check(golden_run());
  check(odd_name_run());
  // Area names are escaped in event names and race markers alike.
  const std::string doc = odd_name_run().chrome();
  EXPECT_NE(doc.find("RACE x\\\"y\\\\z"), std::string::npos) << doc;
}

TEST(Trace, FixedSeedRunsRenderByteIdentically) {
  const RecordedRun a = golden_run();
  const RecordedRun b = golden_run();
  EXPECT_EQ(a.jsonl(), b.jsonl());
  EXPECT_EQ(a.chrome(), b.chrome());
}

TEST(Trace, EmptyLogRendersWellFormed) {
  record::Log log;
  std::ostringstream jsonl, chrome;
  write_jsonl(jsonl, log, {});
  write_chrome(chrome, log, {});
  EXPECT_TRUE(jsonl.str().empty());
  EXPECT_EQ(chrome.str(), "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n]}\n");
}

}  // namespace
}  // namespace dsmr::trace
