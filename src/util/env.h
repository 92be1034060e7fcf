// Environment-variable parsing shared by the bench binaries and harnesses.
//
// The knobs (LGSIM_BENCH_SCALE, LGSIM_BENCH_JOBS, LGSIM_TRACE_CAP) feed
// directly into loop bounds, thread counts and buffer sizes, so the parsers
// are strict: an unset or empty variable takes the default, and anything else
// that is not a finite value in range — including "nan", "inf", overflow, or
// trailing garbage — is rejected with std::invalid_argument naming the
// variable and its value, instead of leaking into the run or being replaced
// silently.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace lgsim {

namespace env_detail {

[[noreturn]] inline void reject(const char* name, const char* s,
                                const std::string& why) {
  throw std::invalid_argument(std::string(name) + "=\"" + s + "\": " + why);
}

/// True if only whitespace follows `end`.
inline bool rest_is_blank(const char* end) {
  for (; *end != '\0'; ++end)
    if (!std::isspace(static_cast<unsigned char>(*end))) return false;
  return true;
}

}  // namespace env_detail

/// Parses `s`, the value of environment variable `name`, as a strictly
/// positive, finite double. Returns `fallback` for null or empty; throws
/// std::invalid_argument for non-numeric, trailing garbage, NaN, infinity,
/// or values <= 0.
inline double parse_positive_double(const char* name, const char* s,
                                    double fallback) {
  if (s == nullptr || *s == '\0') return fallback;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || !env_detail::rest_is_blank(end))
    env_detail::reject(name, s, "not a number");
  if (!std::isfinite(v) || v <= 0.0)
    env_detail::reject(name, s, "must be a finite value > 0");
  return v;
}

/// Parses `s`, the value of environment variable `name`, as a count in
/// [1, max] (e.g. a worker count; the bound keeps a fat-fingered value from
/// spawning thousands of threads). Returns `fallback` for null or empty;
/// throws std::invalid_argument for non-numeric, trailing garbage, values
/// < 1 or values above `max`.
inline unsigned parse_positive_count(const char* name, const char* s,
                                     unsigned fallback, unsigned max = 1024) {
  if (s == nullptr || *s == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (end == s || !env_detail::rest_is_blank(end))
    env_detail::reject(name, s, "not an integer");
  if (v < 1) env_detail::reject(name, s, "must be >= 1");
  if (errno == ERANGE || v > static_cast<long>(max))
    env_detail::reject(name, s, "must be <= " + std::to_string(max));
  return static_cast<unsigned>(v);
}

}  // namespace lgsim
