#include "obs/log.h"

#include <cstdarg>

#include "obs/json.h"
#include "obs/trace.h"

namespace errorflow {
namespace obs {

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "unknown";
}

void Logger::SetLevel(LogLevel level) {
  std::lock_guard<std::mutex> lock(mu_);
  level_ = level;
}

LogLevel Logger::level() const {
  std::lock_guard<std::mutex> lock(mu_);
  return level_;
}

bool Logger::OpenJsonFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  json_file_.reset(f);
  return true;
}

void Logger::CaptureForTest(std::string* out) {
  std::lock_guard<std::mutex> lock(mu_);
  capture_ = out;
}

void Logger::Write(LogLevel level, const std::string& message,
                   const std::vector<LogField>& fields) {
  std::lock_guard<std::mutex> lock(mu_);
  if (level < level_) return;

  std::string text = "[";
  text += LogLevelName(level);
  text += "] ";
  text += message;
  for (const LogField& f : fields) {
    text += " ";
    text += f.key;
    text += "=";
    text += f.value;
  }
  text += "\n";
  if (capture_ != nullptr) {
    *capture_ += text;
  } else {
    std::fputs(text.c_str(), stderr);
    std::fflush(stderr);
  }

  if (json_file_ != nullptr) {
    char ts[48];
    std::snprintf(ts, sizeof(ts), "%.3f", NowMicros());
    std::string json = "{\"ts_us\": ";
    json += ts;
    json += ", \"level\": \"";
    json += LogLevelName(level);
    json += "\", \"msg\": " + JsonString(message);
    for (const LogField& f : fields) {
      json += ", " + JsonString(f.key) + ": " + JsonString(f.value);
    }
    json += "}\n";
    std::fputs(json.c_str(), json_file_.get());
    std::fflush(json_file_.get());
  }
}

Logger& Logger::Global() {
  static Logger* logger = new Logger();
  return *logger;
}

void Logf(LogLevel level, const char* fmt, ...) {
  Logger& logger = Logger::Global();
  if (!logger.Enabled(level)) return;
  va_list ap;
  va_start(ap, fmt);
  char stack_buf[512];
  const int n = std::vsnprintf(stack_buf, sizeof(stack_buf), fmt, ap);
  va_end(ap);
  if (n < 0) return;
  if (static_cast<size_t>(n) < sizeof(stack_buf)) {
    logger.Write(level, stack_buf);
    return;
  }
  std::string big(static_cast<size_t>(n) + 1, '\0');
  va_start(ap, fmt);
  std::vsnprintf(big.data(), big.size(), fmt, ap);
  va_end(ap);
  big.resize(static_cast<size_t>(n));
  logger.Write(level, big);
}

}  // namespace obs
}  // namespace errorflow
