#include "src/util/logging.h"

#include <cstring>

namespace tas {
namespace {

// Initial level from the TAS_LOG_LEVEL environment variable: a name
// (debug|info|warn|error, case-sensitive) or a numeric level 0-3. Unset or
// unparsable values keep the kInfo default.
int InitialLogLevel() {
  const char* env = std::getenv("TAS_LOG_LEVEL");
  if (env == nullptr || *env == '\0') {
    return static_cast<int>(LogLevel::kInfo);
  }
  if (std::strcmp(env, "debug") == 0) {
    return static_cast<int>(LogLevel::kDebug);
  }
  if (std::strcmp(env, "info") == 0) {
    return static_cast<int>(LogLevel::kInfo);
  }
  if (std::strcmp(env, "warn") == 0) {
    return static_cast<int>(LogLevel::kWarn);
  }
  if (std::strcmp(env, "error") == 0) {
    return static_cast<int>(LogLevel::kError);
  }
  if (env[0] >= '0' && env[0] <= '3' && env[1] == '\0') {
    return env[0] - '0';
  }
  return static_cast<int>(LogLevel::kInfo);
}

const LogLevel g_log_level = static_cast<LogLevel>(InitialLogLevel());

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

}  // namespace

LogLevel GetLogLevel() { return g_log_level; }

LogMessage::LogMessage(LogLevel level, const char* file, int line) : level_(level) {
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') {
      base = p + 1;
    }
  }
  stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (level_ >= GetLogLevel() || level_ == LogLevel::kFatal) {
    std::cerr << stream_.str() << std::endl;
  }
  if (level_ == LogLevel::kFatal) {
    std::abort();
  }
}

}  // namespace tas
