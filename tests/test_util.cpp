// Unit tests for dsmr::util — RNG determinism, statistics, table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "util/block_pool.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace dsmr::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(5);
  Rng child = parent.fork(0);
  Rng parent2(5);
  Rng child2 = parent2.fork(0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child.next(), child2.next());

  Rng parent3(5);
  Rng other = parent3.fork(1);
  int equal = 0;
  Rng child3 = Rng(5).fork(0);
  for (int i = 0; i < 100; ++i) equal += child3.next() == other.next();
  EXPECT_LT(equal, 3);
}

TEST(BlockPool, RecyclesLifoWithinAClassUpToItsRetentionBound) {
  // A fresh thread starts with empty lists, and its exit drains them.
  std::thread([] {
    using util::pool_detail::kRetainBytes;
    using util::pool_detail::t_lists;
    constexpr std::size_t kBytes = 64;
    const std::size_t kept = kRetainBytes / kBytes;
    std::vector<void*> first(2 * kept);
    for (void*& block : first) block = util::pool_allocate(kBytes);
    for (void* block : first) util::pool_release(block, kBytes);
    const std::size_t c = util::pool_detail::class_of(kBytes);
    EXPECT_EQ(t_lists.retained[c], kRetainBytes);  // the rest went back to malloc.

    // Another class never hands out a retained 64 B block.
    void* other = util::pool_allocate(2 * kBytes);
    EXPECT_EQ(std::count(first.begin(), first.begin() + static_cast<std::ptrdiff_t>(kept), other),
              0);
    util::pool_release(other, 2 * kBytes);

    std::vector<void*> second(kept);
    for (std::size_t i = 0; i < kept; ++i) {
      second[i] = util::pool_allocate(kBytes);
      EXPECT_EQ(second[i], first[kept - 1 - i]) << i;
    }
    EXPECT_EQ(t_lists.retained[c], 0u);
    for (void* block : second) util::pool_release(block, kBytes);
  }).join();
}

TEST(OnlineStats, MeanAndVariance) {
  OnlineStats stats;
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  for (double x : xs) stats.add(x);
  EXPECT_EQ(stats.count(), xs.size());
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  // Sample variance of the data set is 32/7.
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
}

TEST(OnlineStats, MergeMatchesSequential) {
  OnlineStats all, left, right;
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform() * 100;
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(LogHistogram, QuantilesBracketSamples) {
  LogHistogram hist;
  for (std::uint64_t i = 1; i <= 1024; ++i) hist.add(i);
  EXPECT_EQ(hist.count(), 1024u);
  // The median of 1..1024 is ~512; the bucket estimate must be within 2x.
  const double median = hist.quantile(0.5);
  EXPECT_GE(median, 256.0);
  EXPECT_LE(median, 1024.0);
  EXPECT_LE(hist.quantile(0.0), hist.quantile(1.0));
}

TEST(LogHistogram, RenderShowsBuckets) {
  LogHistogram hist;
  hist.add(1);
  hist.add(100);
  const std::string out = hist.render();
  EXPECT_NE(out.find("#"), std::string::npos);
}

TEST(Table, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"longer-name", "2.50"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(Table::fmt(1.234567, 2), "1.23");
  EXPECT_EQ(Table::fmt_int(42), "42");
}


TEST(Cli, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha", "3", "--beta=2.5", "--gamma", "--name", "xyz"};
  Cli cli(7, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(cli.get_double("beta", 0.0), 2.5);
  EXPECT_TRUE(cli.get_flag("gamma"));
  EXPECT_EQ(cli.get_string("name", ""), "xyz");
  EXPECT_EQ(cli.finish(), "");
}

TEST(Cli, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Cli cli(1, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("missing2", 1.5), 1.5);
  EXPECT_FALSE(cli.get_flag("missing3"));
  EXPECT_EQ(cli.get_string("missing4", "dft"), "dft");
  EXPECT_EQ(cli.finish(), "");
}

TEST(Cli, FlagFalseValues) {
  const char* argv[] = {"prog", "--a=false", "--b=0", "--c=true"};
  Cli cli(4, const_cast<char**>(argv));
  EXPECT_FALSE(cli.get_flag("a"));
  EXPECT_FALSE(cli.get_flag("b"));
  EXPECT_TRUE(cli.get_flag("c"));
  EXPECT_EQ(cli.finish(), "");
}

TEST(ParseInt, StrictAcceptsOnlyWholeIntegers) {
  EXPECT_EQ(parse_i64("42"), 42);
  EXPECT_EQ(parse_i64("-7"), -7);
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615ULL);
  // The silent-truncation class of bugs this replaces:
  EXPECT_FALSE(parse_i64("12abc").has_value());
  EXPECT_FALSE(parse_i64("abc").has_value());
  EXPECT_FALSE(parse_i64("").has_value());
  EXPECT_FALSE(parse_i64(" 3").has_value());
  EXPECT_FALSE(parse_i64("3 ").has_value());
  EXPECT_FALSE(parse_i64("99999999999999999999999").has_value());  // overflow.
  EXPECT_FALSE(parse_u64("-1").has_value());
  EXPECT_FALSE(parse_u64("+1").has_value());
  EXPECT_FALSE(parse_u64("18446744073709551616").has_value());  // overflow.
}

TEST(SeedRange, ParsesCountAndInclusiveRangeForms) {
  std::string error;
  auto range = parse_seed_range("64", 1, &error);
  ASSERT_TRUE(range.has_value()) << error;
  EXPECT_EQ(*range, (SeedRange{1, 64}));
  // The count form starts at the caller's default first seed.
  EXPECT_EQ(parse_seed_range("8", 100), (SeedRange{100, 8}));
  EXPECT_EQ(parse_seed_range("10..20", 1), (SeedRange{10, 11}));
  EXPECT_EQ(parse_seed_range("5..5", 1), (SeedRange{5, 1}));
}

TEST(SeedRange, RejectsMalformedRangesWithAMessage) {
  for (const char* text : {"", "abc", "12abc", "0", "10..", "..10", "3..x",
                           "20..10", "1...5", "-3..4",
                           // The full u64 range: its count wraps to 0.
                           "0..18446744073709551615"}) {
    std::string error;
    EXPECT_FALSE(parse_seed_range(text, 1, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
  // The near-maximal range is still representable and accepted.
  EXPECT_EQ(parse_seed_range("1..18446744073709551615", 1),
            (SeedRange{1, 18446744073709551615ULL}));
}

TEST(SeedRange, CountFormOverflowAtTheU64Boundary) {
  // Accepted exactly up to the edge: the last seed first + count - 1 may
  // equal 2^64-1 but never pass it.
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(parse_seed_range("18446744073709551615", 1), (SeedRange{1, max}));
  EXPECT_EQ(parse_seed_range("1", max), (SeedRange{max, 1}));
  EXPECT_EQ(parse_seed_range("2", max - 1), (SeedRange{max - 1, 2}));

  // One past the edge: the sweep would wrap past 2^64-1 and silently
  // repeat low seeds — rejected with a message instead.
  for (const auto& [text, first] :
       std::vector<std::pair<std::string, std::uint64_t>>{
           {"18446744073709551615", 2},  // last seed = 2^64, unrepresentable.
           {"2", max},
           {"3", max - 1}}) {
    std::string error;
    EXPECT_FALSE(parse_seed_range(text, first, &error).has_value())
        << text << " from " << first;
    EXPECT_NE(error.find("overflows"), std::string::npos) << error;
  }

  // The inclusive-range form caps at HI = 2^64-1 by grammar; the boundary
  // singleton and the widest non-wrapping ranges parse.
  EXPECT_EQ(parse_seed_range("18446744073709551615..18446744073709551615", 1),
            (SeedRange{max, 1}));
  EXPECT_EQ(parse_seed_range("2..18446744073709551615", 1), (SeedRange{2, max - 1}));
}

TEST(Cli, SeedRangeFlagSharedGrammar) {
  const char* argv[] = {"prog", "--seeds", "7..9"};
  Cli cli(3, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_seed_range("seeds", SeedRange{1, 32}), (SeedRange{7, 3}));
  EXPECT_EQ(cli.finish(), "");

  const char* argv2[] = {"prog"};
  Cli defaults(1, const_cast<char**>(argv2));
  EXPECT_EQ(defaults.get_seed_range("seeds", SeedRange{5, 16}), (SeedRange{5, 16}));
  EXPECT_EQ(defaults.finish(), "");
}

TEST(Cli, MalformedSeedRangeIsAnError) {
  const char* argv[] = {"prog", "--seeds", "20..10"};
  Cli cli(3, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_seed_range("seeds", SeedRange{1, 32}), (SeedRange{1, 32}));
  EXPECT_NE(cli.finish().find("--seeds"), std::string::npos) << cli.finish();
}

TEST(Cli, MalformedIntegerIsAnErrorNotATruncation) {
  const char* argv[] = {"prog", "--alpha", "12abc", "--beta", "xyz"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("alpha", 0), 0);
  EXPECT_EQ(cli.get_int("beta", 0), 0);
  // The first error wins.
  EXPECT_EQ(cli.finish(), "--alpha expects an integer, got '12abc'");
}

TEST(Cli, DoubleAcceptsPlainDecimalIncludingDenormals) {
  const char* argv[] = {"prog", "--a", "0.25", "--b=-1.5e2", "--c", "1e-320"};
  Cli cli(6, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(cli.get_double("a", 0.0), 0.25);
  EXPECT_DOUBLE_EQ(cli.get_double("b", 0.0), -150.0);
  // Underflow to a denormal is a valid value, not an error.
  EXPECT_GT(cli.get_double("c", 1.0), 0.0);
  EXPECT_EQ(cli.finish(), "");
}

TEST(Cli, DoubleRejectsNonDecimalForms) {
  for (const char* text : {"nan", "inf", "0x1A", "1e400"}) {  // 1e400: overflow.
    const char* argv[] = {"prog", "--a", text};
    Cli cli(3, const_cast<char**>(argv));
    EXPECT_DOUBLE_EQ(cli.get_double("a", 0.5), 0.5) << text;
    EXPECT_NE(cli.finish().find("expects a number"), std::string::npos) << text;
  }
}

TEST(Cli, UnknownFlagIsAnErrorOnFinish) {
  const char* argv[] = {"prog", "--tpyo", "1"};
  Cli cli(3, const_cast<char**>(argv));
  EXPECT_EQ(cli.finish(), "unknown flag --tpyo (try --help)");
}

TEST(Cli, NonFlagArgumentIsAnError) {
  const char* argv[] = {"prog", "stray", "--a", "1"};
  Cli cli(4, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("a", 0), 1);
  EXPECT_EQ(cli.finish(), "flags must start with --, got: stray");
}

// The command lines the tools must reject with exit 2 rather than abort:
// each is an error value from the parser, never a process death.
TEST(Cli, ToolBadFlagCasesReturnErrors) {
  {
    const char* argv[] = {"dsmr_replay", "--bogus"};
    Cli cli(2, const_cast<char**>(argv));
    (void)cli.get_string("log", "");
    EXPECT_EQ(cli.finish(), "unknown flag --bogus (try --help)");
  }
  {
    const char* argv[] = {"dsmr_fuzz", "--seeds", "abc"};
    Cli cli(3, const_cast<char**>(argv));
    EXPECT_EQ(cli.get_seed_range("seeds", SeedRange{1, 64}), (SeedRange{1, 64}));
    EXPECT_NE(cli.finish().find("'abc' is not a seed count"), std::string::npos);
  }
  {
    const char* argv[] = {"dsmr_explore", "--trace-dir", "x"};
    Cli cli(3, const_cast<char**>(argv));
    (void)cli.get_string("witness-dir", "");
    EXPECT_EQ(cli.finish(), "unknown flag --trace-dir (try --help)");
  }

  // Every contract kind a tool states through its getters: ranges (a value
  // that would wrap at a cast included), choices, parsed text, cross-flag
  // rules and output paths. `run` reads flags the way the tools do.
  const auto scratch = std::filesystem::temp_directory_path() /
                       ("dsmr_cli_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(scratch);
  const std::string file = (scratch / "a-file").string();
  std::ofstream(file) << "x";
  const auto run = [](std::vector<std::string> args) {
    std::vector<char*> argv{const_cast<char*>("tool")};
    for (auto& arg : args) argv.push_back(arg.data());
    Cli cli(static_cast<int>(argv.size()), argv.data());
    const std::string backend = cli.get_choice("backend", "sim", {"sim", "threaded", "both"});
    cli.get_int("ranks", 4, 1, backend == "sim" ? 1024 : kMaxThreads);
    cli.get_uint("area-bytes", 8, 1, 1 << 16);
    cli.get_uint("schedule-seeds", 3, 1);
    cli.get_uint("seed", 1);
    cli.get_double("planted-fraction", 0.5, 0.0, 1.0);
    cli.get_parsed("kinds", "all", [](const std::string& text, std::string* error) {
      if (text != "all" && text != "none") *error = "unknown kind '" + text + "'";
      return text == "all" || text == "none" ? std::optional<std::string>(text) : std::nullopt;
    });
    const auto perturb_min = cli.get_uint("perturb-min", 0);
    const auto perturb_max = cli.get_uint("perturb-max", 4'000);
    cli.check(perturb_min <= perturb_max, "--perturb-min must be <= --perturb-max");
    cli.get_output_file("json");
    cli.get_output_dir("repro-dir");
    return cli.finish();
  };
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"--ranks", "0"}, "--ranks must be in [1, 1024], got 0"},
      {{"--ranks", "4294967297"}, "--ranks must be in [1, 1024], got 4294967297"},
      {{"--backend", "threaded", "--ranks", "1000"}, "--ranks must be in [1, 256], got 1000"},
      {{"--area-bytes", "4294967297"}, "--area-bytes must be in [1, 65536], got 4294967297"},
      {{"--schedule-seeds", "0"}, "--schedule-seeds must be >= 1, got 0"},
      {{"--seed", "-1"}, "--seed expects a non-negative integer, got '-1'"},
      {{"--planted-fraction", "2"}, "--planted-fraction must be in [0, 1], got 2"},
      {{"--backend", "bogus"}, "--backend must be one of sim|threaded|both, got 'bogus'"},
      {{"--kinds", "bogus"}, "--kinds: unknown kind 'bogus'"},
      {{"--perturb-min", "5", "--perturb-max", "1"}, "--perturb-min must be <= --perturb-max"},
      {{"--repro-dir", file + "/x"}, "cannot create --repro-dir " + file + "/x: Not a directory"},
      {{"--json", file + "/x.json"}, "cannot write --json " + file + "/x.json"},
      // A typo outranks the errors it may explain.
      {{"--rnaks", "2", "--ranks", "0"}, "unknown flag --rnaks (try --help)"},
  };
  for (const auto& [args, expected] : cases) EXPECT_EQ(run(args), expected) << args[0];

  // Outputs are prepared only on a good command line, and then before any
  // work: the file exists once finish() returns.
  const std::string json = (scratch / "out.json").string();
  EXPECT_NE(run({"--json", json, "--ranks", "0"}), "");
  EXPECT_FALSE(std::filesystem::exists(json));
  EXPECT_EQ(run({"--json", json, "--repro-dir", (scratch / "r").string()}), "");
  EXPECT_TRUE(std::filesystem::is_regular_file(json));
  EXPECT_TRUE(std::filesystem::is_directory(scratch / "r"));
  std::filesystem::remove_all(scratch);
}

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json_escape("plain"), "plain");
}

}  // namespace
}  // namespace dsmr::util
