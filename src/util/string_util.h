#ifndef ACTOR_UTIL_STRING_UTIL_H_
#define ACTOR_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace actor {

/// Splits `s` on `delim`, keeping empty fields. Split("a,,b", ',') ->
/// {"a", "", "b"}.
std::vector<std::string> Split(std::string_view s, char delim);

/// Splits on any run of ASCII whitespace, dropping empty tokens.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `delim` between consecutive elements.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view delim);

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Parses a base-10 integer that spans all of `s` (no leading or trailing
/// junk, no overflow). Returns false and leaves `*out` alone otherwise.
bool ParseInt64(const std::string& s, int64_t* out);

/// Parses a floating-point number that spans all of `s`, rejecting
/// overflow. "nan" and "inf" parse; callers that need a finite value check
/// it themselves.
bool ParseDouble(const std::string& s, double* out);

/// printf-style formatting into a std::string.
std::string StrPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace actor

#endif  // ACTOR_UTIL_STRING_UTIL_H_
