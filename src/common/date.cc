#include "common/date.h"

#include <array>
#include <cstdio>
#include <cstdlib>

namespace domd {
namespace {

// Howard Hinnant's civil-day algorithms (public domain), exact over the
// proleptic Gregorian calendar.
std::int64_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);  // [0, 399]
  const unsigned doy = (153u * static_cast<unsigned>(m + (m > 2 ? -3 : 9)) + 2u) / 5u +
                       static_cast<unsigned>(d) - 1u;          // [0, 365]
  const unsigned doe = yoe * 365u + yoe / 4u - yoe / 100u + doy;  // [0,146096]
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

void CivilFromDays(std::int64_t z, int* y, int* m, int* d) {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);  // [0,146096]
  const unsigned yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;  // [0, 399]
  const std::int64_t yy = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);  // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                       // [0, 11]
  const unsigned dd = doy - (153 * mp + 2) / 5 + 1;              // [1, 31]
  const unsigned mm = mp + (mp < 10 ? 3 : -9);                   // [1, 12]
  *y = static_cast<int>(yy + (mm <= 2));
  *m = static_cast<int>(mm);
  *d = static_cast<int>(dd);
}

bool IsLeap(int y) { return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0; }

int DaysInMonth(int y, int m) {
  static constexpr std::array<int, 13> kDays = {0,  31, 28, 31, 30, 31, 30,
                                                31, 31, 30, 31, 30, 31};
  if (m == 2 && IsLeap(y)) return 29;
  return kDays[static_cast<std::size_t>(m)];
}

// Parses an unsigned decimal run; returns false if empty or non-digit.
bool ParseUint(std::string_view text, std::size_t* pos, int* out) {
  std::size_t start = *pos;
  long value = 0;
  while (*pos < text.size() && text[*pos] >= '0' && text[*pos] <= '9') {
    value = value * 10 + (text[*pos] - '0');
    if (value > 1000000) return false;
    ++*pos;
  }
  if (*pos == start) return false;
  *out = static_cast<int>(value);
  return true;
}

// The ASCII digit for a value in [0, 9].
char Digit(int value) { return static_cast<char>('0' + value); }

}  // namespace

Date Date::FromCivil(int year, int month, int day) {
  if (month < 1 || month > 12) std::abort();
  return Date(DaysFromCivil(year, month, day));
}

StatusOr<Date> Date::Parse(std::string_view text) {
  std::size_t pos = 0;
  int a = 0, b = 0, c = 0;
  if (!ParseUint(text, &pos, &a)) {
    return Status::InvalidArgument("bad date: " + std::string(text));
  }
  if (pos >= text.size() || (text[pos] != '/' && text[pos] != '-')) {
    return Status::InvalidArgument("bad date separator: " + std::string(text));
  }
  const char sep = text[pos];
  ++pos;
  if (!ParseUint(text, &pos, &b)) {
    return Status::InvalidArgument("bad date: " + std::string(text));
  }
  if (pos >= text.size() || text[pos] != sep) {
    return Status::InvalidArgument("bad date separator: " + std::string(text));
  }
  ++pos;
  if (!ParseUint(text, &pos, &c)) {
    return Status::InvalidArgument("bad date: " + std::string(text));
  }
  if (pos != text.size()) {
    return Status::InvalidArgument("trailing chars in date: " +
                                   std::string(text));
  }

  int year, month, day;
  if (sep == '-') {  // ISO YYYY-MM-DD
    year = a;
    month = b;
    day = c;
  } else {  // US M/D/YYYY or M/D/YY
    month = a;
    day = b;
    year = c;
    if (year < 100) year += (year <= 68) ? 2000 : 1900;
  }
  if (month < 1 || month > 12) {
    return Status::OutOfRange("month out of range: " + std::string(text));
  }
  if (day < 1 || day > DaysInMonth(year, month)) {
    return Status::OutOfRange("day out of range: " + std::string(text));
  }
  return Date(DaysFromCivil(year, month, day));
}

int Date::year() const {
  int y, m, d;
  CivilFromDays(serial_, &y, &m, &d);
  return y;
}

int Date::month() const {
  int y, m, d;
  CivilFromDays(serial_, &y, &m, &d);
  return m;
}

int Date::day() const {
  int y, m, d;
  CivilFromDays(serial_, &y, &m, &d);
  return d;
}

std::string Date::ToString() const {
  int y, m, d;
  CivilFromDays(serial_, &y, &m, &d);
  // "%04d-%02d-%02d": years 0-9999 are written digit by digit, any other
  // year through snprintf into a buffer wide enough for any int fields.
  if (y < 0 || y > 9999) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
    return buf;
  }
  const char text[] = {Digit(y / 1000),    Digit(y / 100 % 10),
                       Digit(y / 10 % 10), Digit(y % 10),
                       '-',                Digit(m / 10),
                       Digit(m % 10),      '-',
                       Digit(d / 10),      Digit(d % 10)};
  return std::string(text, sizeof(text));
}

std::string Date::ToUsString() const {
  int y, m, d;
  CivilFromDays(serial_, &y, &m, &d);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%d/%d/%04d", m, d, y);
  return buf;
}

std::ostream& operator<<(std::ostream& os, Date d) {
  return os << d.ToString();
}

}  // namespace domd
