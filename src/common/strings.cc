#include "common/strings.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <charconv>

namespace domd {

std::vector<std::string> StrSplit(std::string_view text, char delim) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delim) {
      parts.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::string_view StrStrip(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool StrStartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

StatusOr<double> ParseDouble(std::string_view text) {
  // from_chars takes an optional '-' but not '+'; strip one '+' so inputs
  // like "+1.5" keep parsing as they did under strtod.
  std::string_view body = text;
  if (!body.empty() && body.front() == '+') {
    body.remove_prefix(1);
    if (!body.empty() && (body.front() == '+' || body.front() == '-')) {
      return Status::InvalidArgument("not a number: \"" + std::string(text) +
                                     "\"");
    }
  }
  if (body.empty()) {
    return Status::InvalidArgument("not a number: \"" + std::string(text) +
                                   "\"");
  }
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(body.data(), body.data() + body.size(), value);
  if (ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument("number out of double range: \"" +
                                   std::string(text) + "\"");
  }
  if (ec != std::errc() || end != body.data() + body.size()) {
    return Status::InvalidArgument("not a number: \"" + std::string(text) +
                                   "\"");
  }
  return value;
}

StatusOr<std::int64_t> ParseInt64(std::string_view text, std::int64_t min,
                                  std::int64_t max) {
  std::int64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec == std::errc::invalid_argument || end != text.data() + text.size()) {
    return Status::InvalidArgument("not an integer: \"" + std::string(text) +
                                   "\"");
  }
  if (ec != std::errc() || value < min || value > max) {
    return Status::InvalidArgument(
        "integer out of range [" + std::to_string(min) + ", " +
        std::to_string(max) + "]: \"" + std::string(text) + "\"");
  }
  return value;
}

std::string StrToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string Hex64(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (auto digit = out.rbegin(); digit != out.rend(); ++digit) {
    *digit = kDigits[value & 0xf];
    value >>= 4;
  }
  return out;
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IoError("cannot open " + path);
  struct stat info {};
  const bool sized = ::fstat(fd, &info) == 0 && S_ISREG(info.st_mode);
  // One spare byte, so the read that finds the end needs no second buffer.
  std::string bytes(sized ? static_cast<std::size_t>(info.st_size) + 1 : 4096,
                    '\0');
  std::size_t used = 0;
  for (;;) {
    if (used == bytes.size()) bytes.resize(2 * bytes.size());
    const ssize_t n = ::read(fd, bytes.data() + used, bytes.size() - used);
    if (n > 0) {
      used += static_cast<std::size_t>(n);
    } else if (n == 0) {
      break;
    } else if (errno != EINTR) {
      ::close(fd);
      return Status::IoError("read failed for " + path);
    }
  }
  ::close(fd);
  bytes.resize(used);
  return bytes;
}

}  // namespace domd
