// Small string helpers shared by the I/O layer and the bench harnesses.

#ifndef CLUSEQ_UTIL_STRING_UTIL_H_
#define CLUSEQ_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cluseq {

/// Splits `input` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view input, char delim);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripAsciiWhitespace(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Joins the items with `sep` between them.
std::string Join(const std::vector<std::string>& items, std::string_view sep);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Parses a "--key=value" style flag; returns true and sets `value` if
/// `arg` matches "--<name>=".
bool ParseFlag(std::string_view arg, std::string_view name,
               std::string* value);

/// Strict whole-string number parsers for flag and spec values. Each
/// returns false, leaving *out untouched, unless `text` is exactly one
/// number: no leading whitespace, no trailing text.
/// ParseUint64 takes decimal digits only — no sign — and rejects values
/// past UINT64_MAX.
bool ParseUint64(std::string_view text, uint64_t* out);
/// ParseInt32 takes decimal digits with an optional leading '-' and rejects
/// values outside the int32_t range.
bool ParseInt32(std::string_view text, int32_t* out);
/// ParseDouble takes strtod syntax and rejects inf, nan and overflow.
bool ParseDouble(std::string_view text, double* out);

/// Human-readable byte count, e.g. "5.0 MiB".
std::string HumanBytes(size_t bytes);

}  // namespace cluseq

#endif  // CLUSEQ_UTIL_STRING_UTIL_H_
