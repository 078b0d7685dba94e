// Strict integer environment knobs.
#pragma once

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <system_error>

namespace cellfi {

/// The value of the environment variable `name` if it is one whole decimal
/// integer in int range, else nullopt. Unset, empty, trailing junk ("2x"),
/// a leading '+' or space, and out-of-range values ("99999999999") all
/// count as unset; range checks beyond that are the caller's.
inline std::optional<int> EnvInt(const char* name) {
  const char* text = std::getenv(name);
  if (text == nullptr) return std::nullopt;
  const char* end = text + std::strlen(text);
  int value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace cellfi
