#ifndef DOMD_COMMON_STATUS_H_
#define DOMD_COMMON_STATUS_H_

#include <cstdlib>
#include <ostream>
#include <string>
#include <utility>
#include <variant>

namespace domd {

/// Error categories used across the library. Mirrors the minimal set a
/// database-style C++ codebase needs: callers branch on the code, the
/// message carries human-readable detail.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kAlreadyExists,
  kInternal,
  kIoError,
  kResourceExhausted,  ///< admission control: queue/capacity bound hit.
  kDeadlineExceeded,   ///< the caller's deadline passed before completion.
  kUnavailable,        ///< transient: the service is shedding load; retry.
  kDataLoss,           ///< unrecoverable corruption (torn write, bad sum).
};

/// Returns a stable human-readable name for a status code.
const char* StatusCodeToString(StatusCode code);

/// A lightweight success-or-error result, modeled after absl::Status.
/// The library does not throw exceptions across public API boundaries;
/// every fallible operation returns Status or StatusOr<T>.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "OK" or "<CODE>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& s);

/// Holds either a value of type T or an error Status. Accessing the value
/// of an errored StatusOr aborts the process (programming error), matching
/// the semantics of absl::StatusOr in hardened builds.
template <typename T>
class StatusOr {
 public:
  /// Implicit construction from a value (success).
  StatusOr(T value) : rep_(std::move(value)) {}  // NOLINT
  /// Implicit construction from an error status. Must not be OK.
  StatusOr(Status status) : rep_(std::move(status)) {  // NOLINT
    if (std::get<Status>(rep_).ok()) {
      std::abort();  // OK status carries no value; this is a caller bug.
    }
  }

  bool ok() const { return std::holds_alternative<T>(rep_); }

  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(rep_);
  }

  const T& value() const& {
    CheckOk();
    return std::get<T>(rep_);
  }
  T& value() & {
    CheckOk();
    return std::get<T>(rep_);
  }
  T&& value() && {
    CheckOk();
    return std::get<T>(std::move(rep_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void CheckOk() const {
    if (!ok()) std::abort();
  }

  std::variant<T, Status> rep_;
};

/// Sets `*out` to `value` when it names an enumerator of `Enum`, whose
/// enumerators run from 0 to `last`: the check for an enum field read back
/// from a text file. Any other value is InvalidArgument naming `field`, so
/// a hand-edited file never reaches a switch that has no case for it.
template <typename Enum>
Status ReadEnum(int value, Enum last, const char* field, Enum* out) {
  if (value < 0 || value > static_cast<int>(last)) {
    return Status::InvalidArgument(std::string(field) + " " +
                                   std::to_string(value) + " is out of range");
  }
  *out = static_cast<Enum>(value);
  return Status::OK();
}

}  // namespace domd

/// Propagates an error Status from an expression, absl-style.
#define DOMD_RETURN_IF_ERROR(expr)                   \
  do {                                               \
    ::domd::Status domd_status_tmp_ = (expr);        \
    if (!domd_status_tmp_.ok()) return domd_status_tmp_; \
  } while (false)

#endif  // DOMD_COMMON_STATUS_H_
