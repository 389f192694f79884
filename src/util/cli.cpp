#include "util/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>


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

Cli::Cli(int argc, char** argv, const std::string& usage) {
  program_ = argc > 0 ? argv[0] : "dsmr";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("usage: %s %s\n", program_.c_str(), usage.c_str());
      std::exit(0);
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

const std::string* Cli::lookup(const std::string& name) {
  consumed_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

template <typename T>
T Cli::or_fail(const std::optional<T>& value, T default_value, const std::string& message) {
  if (value) return *value;
  fail(message);
  return default_value;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t default_value) {
  const std::string* text = lookup(name);
  if (text == nullptr) return default_value;
  return or_fail(parse_i64(*text), default_value,
                 "--" + name + " expects an integer, got '" + *text + "'");
}

std::uint64_t Cli::get_uint(const std::string& name, std::uint64_t default_value) {
  const std::string* text = lookup(name);
  if (text == nullptr) return default_value;
  return or_fail(parse_u64(*text), default_value,
                 "--" + name + " expects a non-negative integer, got '" + *text + "'");
}

double Cli::get_double(const std::string& name, double default_value) {
  const std::string* text = lookup(name);
  if (text == nullptr) return default_value;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text->c_str(), &end);
  // ERANGE underflow still yields the nearest representable value (a
  // denormal or 0) — accept it; only reject overflow to ±infinity.
  const bool overflow = errno == ERANGE && (value == HUGE_VAL || value == -HUGE_VAL);
  const bool ok = strict_double_text(*text) && !overflow && end == text->c_str() + text->size();
  return or_fail(ok ? std::optional<double>(value) : std::nullopt, default_value,
                 "--" + name + " expects a number, got '" + *text + "'");
}

std::string Cli::get_string(const std::string& name, const std::string& default_value) {
  const std::string* text = lookup(name);
  return text == nullptr ? default_value : *text;
}

bool Cli::get_flag(const std::string& name) {
  const std::string* text = lookup(name);
  return text != nullptr && *text != "false" && *text != "0";
}

SeedRange Cli::get_seed_range(const std::string& name, const SeedRange& default_value) {
  const std::string* text = lookup(name);
  if (text == nullptr) return default_value;
  std::string error;
  const auto range = parse_seed_range(*text, default_value.first, &error);
  return or_fail(range, default_value, "--" + name + ": " + error);
}

std::string Cli::finish() const {
  if (!error_.empty()) return error_;
  for (const auto& [name, value] : values_) {
    (void)value;
    if (consumed_.count(name) == 0) return "unknown flag --" + name + " (try --help)";
  }
  return "";
}

}  // namespace dsmr::util
