#ifndef DOMD_COMMON_FLAGS_H_
#define DOMD_COMMON_FLAGS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace domd {

/// One command-line flag a command accepts, written `--name VALUE`.
struct FlagSpec {
  enum Kind { kString, kInt, kDouble };

  std::string name;
  Kind kind = kString;
  /// Inclusive bounds of a kInt flag.
  std::int64_t min = std::numeric_limits<std::int64_t>::min();
  std::int64_t max = std::numeric_limits<std::int64_t>::max();
  bool required = false;
};

/// A string flag: any value.
FlagSpec StringFlag(std::string name);
/// An integer flag whose value must lie in [min, max].
FlagSpec IntFlag(std::string name, std::int64_t min, std::int64_t max);
/// A number flag whose value must be finite.
FlagSpec DoubleFlag(std::string name);
/// `spec`, which the command cannot run without.
FlagSpec Required(FlagSpec spec);

/// The checked flags of one command. Every check runs in Parse, before the
/// command does anything, so the readers below cannot fail.
class Flags {
 public:
  /// Parses argv[first, argc) as `--name VALUE` pairs against `specs`
  /// (a repeated flag keeps its last value). Fails with kInvalidArgument,
  /// naming the argument, on an undeclared flag, a flag without a value,
  /// an argument that is not a flag, a number that does not parse or lies
  /// out of its range, or a missing required flag.
  static StatusOr<Flags> Parse(int argc, const char* const* argv, int first,
                               const std::vector<FlagSpec>& specs);

  bool Has(const std::string& name) const;
  std::string String(const std::string& name,
                     const std::string& fallback = "") const;
  /// The value of a kInt flag, or `fallback` when absent.
  std::int64_t Int(const std::string& name, std::int64_t fallback) const;
  /// The value of a kDouble flag, or `fallback` when absent.
  double Double(const std::string& name, double fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace domd

#endif  // DOMD_COMMON_FLAGS_H_
