#include "data/swlin.h"

namespace domd {

StatusOr<Swlin> Swlin::Parse(std::string_view text) {
  Swlin code;
  int next_digit = 0;
  for (char c : text) {
    if (c == '-') continue;
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("bad SWLIN character in " +
                                     std::string(text));
    }
    if (next_digit >= kNumDigits) {
      return Status::InvalidArgument("SWLIN too long: " + std::string(text));
    }
    code.digits_[static_cast<std::size_t>(next_digit++)] =
        static_cast<std::uint8_t>(c - '0');
  }
  if (next_digit != kNumDigits) {
    return Status::InvalidArgument("SWLIN must have 8 digits: " +
                                   std::string(text));
  }
  return code;
}

StatusOr<Swlin> Swlin::FromInt(std::int64_t value) {
  if (value < 0 || value >= 100000000) {
    return Status::OutOfRange("SWLIN integer out of range: " +
                              std::to_string(value));
  }
  Swlin code;
  for (int i = kNumDigits - 1; i >= 0; --i) {
    code.digits_[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(value % 10);
    value /= 10;
  }
  return code;
}

std::int64_t Swlin::Prefix(int level) const {
  std::int64_t value = 0;
  for (int i = 0; i < level; ++i) {
    value = value * 10 + digits_[static_cast<std::size_t>(i)];
  }
  return value;
}

std::string Swlin::ToString() const {
  // Every digit is 0-9 (Parse and FromInt are the only writers), so each
  // lands in its own slot of "DDD-DD-DDD".
  static constexpr int kSlot[kNumDigits] = {0, 1, 2, 4, 5, 7, 8, 9};
  std::string out(kNumDigits + 2, '-');
  for (int i = 0; i < kNumDigits; ++i) {
    out[static_cast<std::size_t>(kSlot[i])] = static_cast<char>('0' + digit(i));
  }
  return out;
}

}  // namespace domd
