// Command-line skeleton of the example and tool binaries.
//
// Supports `--name value`, `--name=value` and boolean `--name` forms.
// Unknown flags are an error: examples are teaching material and should
// fail loudly on typos. Numeric flags are parsed *strictly* — trailing
// garbage ("12abc"), overflow or a value outside the flag's bounds is an
// error, never a silent truncation. Errors are values, not aborts: the
// parser keeps the first one, `finish` returns it, and `ok` prints it so
// the tool exits 2 (docs/testing.md, "Exit codes"). `--help` is generated
// from the getters a tool calls.
#pragma once

#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace dsmr::util {

/// Strict base-10 parsers: the whole string must be one in-range integer
/// (optional leading '-' for the signed form). nullopt on anything else —
/// including empty strings, whitespace, trailing garbage, and overflow.
std::optional<std::int64_t> parse_i64(const std::string& text);
std::optional<std::uint64_t> parse_u64(const std::string& text);

/// A contiguous seed range: seeds [first, first + count).
struct SeedRange {
  std::uint64_t first = 1;
  std::uint64_t count = 1;

  bool operator==(const SeedRange&) const = default;
};

/// Parses the seed-range grammar shared by dsmr_explore and dsmr_fuzz:
///   "N"       — N seeds starting at `default_first`
///   "LO..HI"  — the inclusive range [LO, HI]
/// Malformed text (empty, non-numeric, trailing garbage, HI < LO, zero
/// count) returns nullopt and stores a caller-printable message in *error.
/// Overflow is rejected, not wrapped: every seed of the result — up to and
/// including the last, `first + count - 1` — is representable in uint64
/// ("0..18446744073709551615" and an "N" whose sweep would run past
/// 2^64-1 both fail loudly instead of silently repeating low seeds).
std::optional<SeedRange> parse_seed_range(const std::string& text,
                                          std::uint64_t default_first,
                                          std::string* error = nullptr);

/// An output file flag, opened by Cli::finish: `path` is "" when the flag is
/// absent, else `out` is open for writing.
struct OutputFile {
  std::string path;
  std::ofstream out;
};

/// The tools' command-line skeleton. Each getter reads one flag, checks its
/// contract and describes it for the generated `--help`; finish() then
/// prepares every output, and ok() is each tool's one exit point for argv.
class Cli {
 public:
  /// Parses argv. A non-flag argument is kept as the first error; `--help`
  /// is answered by ok().
  Cli(int argc, char** argv);

  // Getters: a malformed or out-of-contract value is kept as the first
  // error (unless one is already kept) and the getter returns
  // `default_value`. Bounds are inclusive.
  int get_int(const std::string& name, int default_value,
              int min = std::numeric_limits<int>::min(),
              int max = std::numeric_limits<int>::max());
  /// Count-like flags: rejects signs outright, so "-1" is an error instead
  /// of wrapping to 2^64-1.
  std::uint64_t get_uint(const std::string& name, std::uint64_t default_value,
                         std::uint64_t min = 0,
                         std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
  double get_double(const std::string& name, double default_value,
                    double min = -std::numeric_limits<double>::max(),
                    double max = std::numeric_limits<double>::max());
  std::string get_string(const std::string& name, const std::string& default_value);
  bool get_flag(const std::string& name);
  /// An enumerated flag: the value must be one of `choices`.
  std::string get_choice(const std::string& name, const std::string& default_value,
                         const std::vector<std::string>& choices);

  /// The shared `--<name> N|LO..HI` seed-range flag (parse_seed_range).
  SeedRange get_seed_range(const std::string& name, const SeedRange& default_value);

  /// A flag read by an existing `std::optional<T> parse(text, &error)`
  /// function (fault plans, bug kinds); `default_text` is parsed when the
  /// flag is absent. A parse error is kept as "--<name>: <error>".
  template <typename Parse>
  auto get_parsed(const std::string& name, const std::string& default_text, Parse parse) {
    const std::string text = get_string(name, default_text);
    std::string error;
    auto value = parse(text, &error);
    using T = typename decltype(value)::value_type;
    if (!value) fail("--" + name + ": " + error);
    return value ? std::move(*value) : T{};
  }

  /// A rule over more than one flag: keeps `message` as the error unless
  /// `ok`.
  void check(bool ok, const std::string& message);

  /// An output file flag; finish() opens it. The reference lives as long
  /// as this Cli.
  OutputFile& get_output_file(const std::string& name);
  /// An output directory flag; finish() creates it. Returns its path, ""
  /// when absent.
  std::string get_output_dir(const std::string& name);

  /// Call after every getter and check: returns the first error — a
  /// malformed argument or value, a failed check, or an output that cannot
  /// be created — or "" when the command line is good. A flag passed but
  /// never read (a typo) outranks the others. Outputs are prepared only on
  /// a good command line.
  [[nodiscard]] std::string finish();

  /// Each tool's one exit point for argv: on `--help` prints the flags read
  /// so far with their defaults and contracts, and exits 0; otherwise
  /// prints finish()'s error as "<tool>: <error>" and returns false, so the
  /// tool exits 2 before any work starts.
  [[nodiscard]] bool ok();

 private:
  void fail(const std::string& message);
  /// Marks `name` consumed and describes it for --help; its value, or
  /// nullptr when it was not passed.
  const std::string* lookup(const std::string& name, const std::string& value_name,
                           const std::string& detail);
  /// The numeric getters' common path: `*value` when it parsed and lies in
  /// [min, max]; otherwise the error ("expects <expects>" or the bounds)
  /// and `default_value`.
  template <typename T, typename V>
  T read_number(const std::string& name, const char* value_name, const char* expects,
                T default_value, T min, T max, std::optional<V> (*parse)(const std::string&));

  std::map<std::string, std::string> values_;
  std::set<std::string> consumed_;
  std::vector<std::pair<std::string, std::string>> help_;  ///< flag, detail.
  std::map<std::string, OutputFile> files_;
  std::vector<std::pair<std::string, std::string>> dirs_;  ///< name, path.
  std::string program_;
  std::string error_;  ///< the first error, "" while there is none.
  bool help_requested_ = false;
  bool finished_ = false;
};

}  // namespace dsmr::util
