#include "util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <sstream>
#include <system_error>

namespace dsmr::util {

namespace {

/// strto* skip leading whitespace; strict parsing must not.
bool strict_start(const std::string& text, bool allow_minus) {
  if (text.empty()) return false;
  const char c = text[0];
  return (c >= '0' && c <= '9') || (allow_minus && c == '-' && text.size() > 1);
}

/// Plain decimal floating-point only: no whitespace, hex, inf, or nan
/// (strtod accepts all of those).
bool strict_double_text(const std::string& text) {
  if (text.empty()) return false;
  const char first = text[0];
  if (first != '-' && first != '.' && !(first >= '0' && first <= '9')) return false;
  for (const char c : text) {
    const bool ok = (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
                    c == '+' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::optional<double> parse_double(const std::string& text) {
  if (!strict_double_text(text)) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  // ERANGE underflow still yields the nearest representable value (a
  // denormal or 0) — accept it; only reject overflow to ±infinity.
  const bool overflow = errno == ERANGE && (value == HUGE_VAL || value == -HUGE_VAL);
  if (overflow || end != text.c_str() + text.size()) return std::nullopt;
  return value;
}

template <typename T>
std::string to_text(T value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

}  // namespace

std::optional<std::int64_t> parse_i64(const std::string& text) {
  if (!strict_start(text, /*allow_minus=*/true)) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno == ERANGE || end != text.c_str() + text.size()) return std::nullopt;
  return static_cast<std::int64_t>(value);
}

std::optional<std::uint64_t> parse_u64(const std::string& text) {
  // No sign at all: strtoull would silently wrap "-1".
  if (!strict_start(text, /*allow_minus=*/false)) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || end != text.c_str() + text.size()) return std::nullopt;
  return static_cast<std::uint64_t>(value);
}

std::optional<SeedRange> parse_seed_range(const std::string& text,
                                          std::uint64_t default_first,
                                          std::string* error) {
  auto fail = [error](const std::string& what) -> std::optional<SeedRange> {
    if (error != nullptr) *error = what;
    return std::nullopt;
  };
  const auto dots = text.find("..");
  if (dots == std::string::npos) {
    const auto count = parse_u64(text);
    if (!count) return fail("'" + text + "' is not a seed count (expected N or LO..HI)");
    if (*count == 0) return fail("seed count must be positive");
    // The last seed is first + count - 1; past 2^64-1 the sweep's seeds
    // would silently wrap around and repeat low seeds.
    if (*count - 1 > std::numeric_limits<std::uint64_t>::max() - default_first) {
      return fail("seed count '" + text + "' overflows past seed 2^64-1 (first seed " +
                  std::to_string(default_first) + ")");
    }
    return SeedRange{default_first, *count};
  }
  const auto lo = parse_u64(text.substr(0, dots));
  const auto hi = parse_u64(text.substr(dots + 2));
  if (!lo || !hi) {
    return fail("'" + text + "' is not a seed range (expected LO..HI, both integers)");
  }
  if (*hi < *lo) {
    return fail("seed range '" + text + "' is empty (HI must be >= LO)");
  }
  const std::uint64_t count = *hi - *lo + 1;
  if (count == 0) {  // 0..2^64-1 wraps: the count is not representable.
    return fail("seed range '" + text + "' is too large to count");
  }
  return SeedRange{*lo, count};
}

Cli::Cli(int argc, char** argv) {
  program_ = argc > 0 ? std::filesystem::path(argv[0]).filename().string() : "dsmr";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      fail("flags must start with --, got: " + arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

void Cli::fail(const std::string& message) {
  if (error_.empty()) error_ = message;
}

void Cli::check(bool ok, const std::string& message) {
  if (!ok) fail(message);
}

const std::string* Cli::lookup(const std::string& name, const std::string& value_name,
                               const std::string& detail) {
  if (consumed_.insert(name).second) {
    help_.emplace_back("--" + name + (value_name.empty() ? "" : " " + value_name), detail);
  }
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

template <typename T, typename V>
T Cli::read_number(const std::string& name, const char* value_name, const char* expects,
                   T default_value, T min, T max,
                   std::optional<V> (*parse)(const std::string&)) {
  std::string bounds;
  if (min != std::numeric_limits<T>::lowest() && max != std::numeric_limits<T>::max()) {
    bounds = "in [" + to_text(min) + ", " + to_text(max) + "]";
  } else if (min != std::numeric_limits<T>::lowest()) {
    bounds = ">= " + to_text(min);
  } else if (max != std::numeric_limits<T>::max()) {
    bounds = "<= " + to_text(max);
  }
  const std::string detail =
      "default " + to_text(default_value) + (bounds.empty() ? "" : ", " + bounds);
  const std::string* text = lookup(name, value_name, detail);
  if (text == nullptr) return default_value;
  const std::optional<V> value = parse(*text);
  if (!value) {
    fail("--" + name + " expects " + expects + ", got '" + *text + "'");
  } else if (*value < min || *value > max) {
    fail("--" + name + " must be " + bounds + ", got " + *text);
  } else {
    return static_cast<T>(*value);
  }
  return default_value;
}

int Cli::get_int(const std::string& name, int default_value, int min, int max) {
  return read_number(name, "INT", "an integer", default_value, min, max, parse_i64);
}

std::uint64_t Cli::get_uint(const std::string& name, std::uint64_t default_value,
                            std::uint64_t min, std::uint64_t max) {
  return read_number(name, "N", "a non-negative integer", default_value, min, max, parse_u64);
}

double Cli::get_double(const std::string& name, double default_value, double min,
                       double max) {
  return read_number(name, "X", "a number", default_value, min, max, parse_double);
}

std::string Cli::get_string(const std::string& name, const std::string& default_value) {
  const std::string* text =
      lookup(name, "TEXT", default_value.empty() ? "" : "default " + default_value);
  return text == nullptr ? default_value : *text;
}

bool Cli::get_flag(const std::string& name) {
  const std::string* text = lookup(name, "", "");
  return text != nullptr && *text != "false" && *text != "0";
}

std::string Cli::get_choice(const std::string& name, const std::string& default_value,
                            const std::vector<std::string>& choices) {
  std::string names;
  for (const auto& choice : choices) names += (names.empty() ? "" : "|") + choice;
  const std::string* text = lookup(name, "NAME", "default " + default_value + ", one of " + names);
  if (text == nullptr) return default_value;
  if (std::find(choices.begin(), choices.end(), *text) != choices.end()) return *text;
  fail("--" + name + " must be one of " + names + ", got '" + *text + "'");
  return default_value;
}

SeedRange Cli::get_seed_range(const std::string& name, const SeedRange& default_value) {
  const std::string* text =
      lookup(name, "N|LO..HI",
             "default " + to_text(default_value.first) + ".." +
                 to_text(default_value.first + default_value.count - 1));
  if (text == nullptr) return default_value;
  std::string error;
  const auto range = parse_seed_range(*text, default_value.first, &error);
  if (range) return *range;
  fail("--" + name + ": " + error);
  return default_value;
}

OutputFile& Cli::get_output_file(const std::string& name) {
  const std::string* text = lookup(name, "FILE", "written when given");
  OutputFile& file = files_[name];
  file.path = text == nullptr ? "" : *text;
  return file;
}

std::string Cli::get_output_dir(const std::string& name) {
  const std::string* text = lookup(name, "DIR", "created when given");
  if (text == nullptr) return "";
  dirs_.emplace_back(name, *text);
  return *text;
}

std::string Cli::finish() {
  // A typo outranks every other error: it usually explains them.
  for (const auto& [name, value] : values_) {
    (void)value;
    if (consumed_.count(name) == 0) {
      error_ = "unknown flag --" + name + " (try --help)";
      break;
    }
  }
  if (!error_.empty() || finished_) return error_;
  finished_ = true;
  // Outputs are prepared only once every flag is good, and before any work:
  // a bad path is an argv error, not a failure after minutes of running.
  for (const auto& [name, dir] : dirs_) {
    if (!error_.empty()) break;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) fail("cannot create --" + name + " " + dir + ": " + ec.message());
  }
  for (auto& [name, file] : files_) {
    if (file.path.empty() || !error_.empty()) continue;
    file.out.open(file.path);
    if (!file.out) fail("cannot write --" + name + " " + file.path);
  }
  return error_;
}

bool Cli::ok() {
  if (help_requested_) {
    std::printf("usage: %s [flags]\n", program_.c_str());
    std::size_t width = 0;
    for (const auto& [flag, detail] : help_) width = std::max(width, flag.size());
    for (const auto& [flag, detail] : help_) {
      std::printf("  %-*s  %s\n", static_cast<int>(width), flag.c_str(), detail.c_str());
    }
    std::exit(0);
  }
  const std::string error = finish();
  if (!error.empty()) std::fprintf(stderr, "%s: %s\n", program_.c_str(), error.c_str());
  return error.empty();
}

}  // namespace dsmr::util
