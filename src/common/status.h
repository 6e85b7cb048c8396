#ifndef KDSEL_COMMON_STATUS_H_
#define KDSEL_COMMON_STATUS_H_

#include <cstdlib>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace kdsel {

/// Error categories used across the library. Modeled after the
/// Arrow/RocksDB status idiom: library code never throws; fallible
/// operations return Status or StatusOr<T>.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kResourceExhausted,  ///< A bounded resource (e.g. a queue) is full.
  kIoError,
  kInternal,
  kUnimplemented,
};

/// Returns a human-readable name for `code` (e.g. "InvalidArgument").
const char* StatusCodeToString(StatusCode code);

/// A success-or-error result for operations that return no value.
///
/// Status is cheap to copy in the success case (no allocation) and carries
/// a code plus message otherwise. Use the factory functions
/// (`Status::InvalidArgument(...)` etc.) to construct errors.
///
/// The class-level [[nodiscard]] makes every function returning Status
/// by value warn (and, under -Werror, fail the build) when the caller
/// drops the result; silently ignored errors were the most common bug
/// class before this was enforced.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// A value-or-error result. Holds either a T (when `ok()`) or an error
/// Status. Accessing the value of a non-OK StatusOr aborts, so callers
/// must check `ok()` first (or use ASSIGN_OR_* style macros below).
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// Constructs from a value (implicit by design, mirrors absl::StatusOr).
  StatusOr(T value) : value_(std::move(value)) {}
  /// Constructs from a non-OK status. Aborts if `status.ok()`.
  StatusOr(Status status) : status_(std::move(status)) {
    if (status_.ok()) std::abort();  // OK status must carry a value.
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    if (!ok()) std::abort();
    return *value_;
  }
  T& value() & {
    if (!ok()) std::abort();
    return *value_;
  }
  T&& value() && {
    if (!ok()) std::abort();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_ = Status::OK();
  std::optional<T> value_;
};

}  // namespace kdsel

/// Propagates a non-OK Status from an expression, Arrow-style.
#define KDSEL_RETURN_NOT_OK(expr)                  \
  do {                                             \
    ::kdsel::Status _st = (expr);                  \
    if (!_st.ok()) return _st;                     \
  } while (0)

/// Evaluates `rexpr` (a StatusOr<T>), propagating the error or moving the
/// value into `lhs`.
#define KDSEL_ASSIGN_OR_RETURN(lhs, rexpr)          \
  auto KDSEL_CONCAT_(_statusor_, __LINE__) = (rexpr); \
  if (!KDSEL_CONCAT_(_statusor_, __LINE__).ok())      \
    return KDSEL_CONCAT_(_statusor_, __LINE__).status(); \
  lhs = std::move(KDSEL_CONCAT_(_statusor_, __LINE__)).value()

#define KDSEL_CONCAT_IMPL_(a, b) a##b
#define KDSEL_CONCAT_(a, b) KDSEL_CONCAT_IMPL_(a, b)

#endif  // KDSEL_COMMON_STATUS_H_
