#ifndef DOMD_COMMON_STRINGS_H_
#define DOMD_COMMON_STRINGS_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace domd {

/// Splits text on a single-character delimiter. Empty fields are preserved;
/// an empty input yields one empty field.
std::vector<std::string> StrSplit(std::string_view text, char delim);

/// Removes leading and trailing ASCII whitespace.
std::string_view StrStrip(std::string_view text);

/// Joins parts with the given separator.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

/// True if text begins with prefix.
bool StrStartsWith(std::string_view text, std::string_view prefix);

/// Lower-cases ASCII letters.
std::string StrToLower(std::string_view text);

/// `value` as 16 lowercase hex digits, zero-padded (printf's "%016llx"):
/// how epochs, history chains, checksums and log headers are written.
std::string Hex64(std::uint64_t value);

/// Parses `text` as a double, checked. The whole string must be a valid
/// number: empty input, partial parses ("1.2.3", "5 days", " 1"), and
/// values outside double range are InvalidArgument — unlike bare strtod,
/// which silently stops at the first bad character and saturates on
/// overflow. Accepts decimal and exponent forms, optional leading sign,
/// and "inf"/"nan" (case-insensitive); locale-independent.
StatusOr<double> ParseDouble(std::string_view text);

/// Parses `text` as a base-10 integer, checked like ParseDouble: the whole
/// string must be the number (an optional '-' and digits; no '+', spaces,
/// fraction or exponent), and a value outside [min, max] is
/// InvalidArgument, never wrapped or narrowed.
StatusOr<std::int64_t> ParseInt64(
    std::string_view text,
    std::int64_t min = std::numeric_limits<std::int64_t>::min(),
    std::int64_t max = std::numeric_limits<std::int64_t>::max());

/// ParseInt64 into `*out`, bounded by the range of `out`'s type.
template <typename Int>
Status ParseIntInto(std::string_view text, Int* out) {
  const auto value = ParseInt64(text, std::numeric_limits<Int>::min(),
                                std::numeric_limits<Int>::max());
  if (!value.ok()) return value.status();
  *out = static_cast<Int>(*value);
  return Status::OK();
}

/// Reads a whole file into one string, allocated once from the file's size
/// (a file that is not regular, or that grows while it is read, is still
/// read to its end). IoError when the file cannot be opened or read.
StatusOr<std::string> ReadFileToString(const std::string& path);

}  // namespace domd

#endif  // DOMD_COMMON_STRINGS_H_
