// Minimal leveled logging with stream syntax and fatal assertions.
//
// Usage:
//   TAS_LOG(INFO) << "fast path core " << core << " online";
//   TAS_CHECK(head <= tail) << "buffer corrupt";
//
// Statements below the minimum severity are dropped; FATAL aborts. The
// TAS_LOG_LEVEL environment variable (debug|info|warn|error, or 0-3) sets
// the level before main() runs, so examples and benchmarks can turn on
// debug logs without recompiling.
#ifndef SRC_UTIL_LOGGING_H_
#define SRC_UTIL_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace tas {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kFatal = 4,
};

// The minimum severity that is emitted. Default: kInfo.
LogLevel GetLogLevel();

// One log statement. Accumulates the message and flushes on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

// Discards the streamed expression; used for compiled-out levels.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

// Turns an ostream expression into void so it can sit in a ternary. The `&`
// operator binds looser than `<<` but tighter than `?:`.
class LogVoidify {
 public:
  void operator&(std::ostream&) {}
};

}  // namespace tas

#define TAS_LOG_DEBUG ::tas::LogMessage(::tas::LogLevel::kDebug, __FILE__, __LINE__).stream()
#define TAS_LOG_INFO ::tas::LogMessage(::tas::LogLevel::kInfo, __FILE__, __LINE__).stream()
#define TAS_LOG_WARN ::tas::LogMessage(::tas::LogLevel::kWarn, __FILE__, __LINE__).stream()
#define TAS_LOG_ERROR ::tas::LogMessage(::tas::LogLevel::kError, __FILE__, __LINE__).stream()
#define TAS_LOG_FATAL ::tas::LogMessage(::tas::LogLevel::kFatal, __FILE__, __LINE__).stream()
#define TAS_LOG(level) TAS_LOG_##level

// Fatal unless `cond` holds. Always enabled (invariants in a protocol stack
// are cheap relative to simulation work and catch corruption early).
#define TAS_CHECK(cond)                                                              \
  (cond) ? (void)0                                                                   \
         : ::tas::LogVoidify() & ::tas::LogMessage(::tas::LogLevel::kFatal, __FILE__, \
                                                   __LINE__)                          \
                                         .stream()                                   \
                                     << "Check failed: " #cond " "

// Debug-only check: full TAS_CHECK in debug builds, compiled out under
// NDEBUG. The `true || (cond)` form keeps `cond` parsed (no unused-variable
// warnings, no bit-rot) while letting the optimizer delete the evaluation.
#ifdef NDEBUG
#define TAS_DCHECK(cond) TAS_CHECK(true || (cond))
#else
#define TAS_DCHECK(cond) TAS_CHECK(cond)
#endif

#endif  // SRC_UTIL_LOGGING_H_
