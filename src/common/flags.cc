#include "common/flags.h"

#include <cmath>
#include <utility>

#include "common/strings.h"

namespace domd {
namespace {

Status CheckValue(const FlagSpec& spec, const std::string& value) {
  const std::string flag = "--" + spec.name;
  if (spec.kind == FlagSpec::kInt) {
    const auto number = ParseInt64(value);
    if (!number.ok()) {
      return Status::InvalidArgument(flag + ": \"" + value +
                                     "\" is not an integer");
    }
    if (*number < spec.min || *number > spec.max) {
      return Status::InvalidArgument(
          flag + ": " + value + " is out of range [" +
          std::to_string(spec.min) + ", " + std::to_string(spec.max) + "]");
    }
  } else if (spec.kind == FlagSpec::kDouble) {
    const auto number = ParseDouble(value);
    if (!number.ok() || !std::isfinite(*number)) {
      return Status::InvalidArgument(flag + ": \"" + value +
                                     "\" is not a finite number");
    }
  }
  return Status::OK();
}

}  // namespace

FlagSpec StringFlag(std::string name) {
  return FlagSpec{std::move(name)};
}

FlagSpec IntFlag(std::string name, std::int64_t min, std::int64_t max) {
  return FlagSpec{std::move(name), FlagSpec::kInt, min, max};
}

FlagSpec DoubleFlag(std::string name) {
  return FlagSpec{std::move(name), FlagSpec::kDouble};
}

FlagSpec Required(FlagSpec spec) {
  spec.required = true;
  return spec;
}

StatusOr<Flags> Flags::Parse(int argc, const char* const* argv, int first,
                             const std::vector<FlagSpec>& specs) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected argument \"" + arg + "\"");
    }
    const std::string name = arg.substr(2);
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& candidate : specs) {
      if (candidate.name == name) spec = &candidate;
    }
    if (spec == nullptr) return Status::InvalidArgument("unknown flag " + arg);
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag " + arg + " needs a value");
    }
    const std::string value = argv[++i];
    DOMD_RETURN_IF_ERROR(CheckValue(*spec, value));
    flags.values_[name] = value;
  }
  for (const FlagSpec& spec : specs) {
    if (spec.required && !flags.Has(spec.name)) {
      return Status::InvalidArgument("--" + spec.name + " is required");
    }
  }
  return flags;
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string Flags::String(const std::string& name,
                          const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::Int(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const auto value = ParseInt64(it->second);
  return value.ok() ? *value : fallback;
}

double Flags::Double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const auto value = ParseDouble(it->second);
  return value.ok() ? *value : fallback;
}

}  // namespace domd
