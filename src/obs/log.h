#ifndef ERRORFLOW_OBS_LOG_H_
#define ERRORFLOW_OBS_LOG_H_

#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace errorflow {
namespace obs {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

const char* LogLevelName(LogLevel level);

/// One structured key=value attachment on a log record.
struct LogField {
  std::string key;
  std::string value;
};

/// \brief Leveled logger with a plain-text sink (stderr) and an optional
/// JSON-lines file sink, closed with the logger. Thread-safe; records below
/// the current level are dropped before formatting.
class Logger {
 public:
  void SetLevel(LogLevel level);
  LogLevel level() const;
  bool Enabled(LogLevel level) const { return level >= this->level(); }

  /// Opens `path` as a JSON-lines sink: one
  /// {"ts_us": ..., "level": ..., "msg": ..., <fields>} object per line.
  /// Returns false (and logs nothing) if the file cannot be opened.
  bool OpenJsonFile(const std::string& path);

  /// Appends every emitted text line to `*out` in place of stderr (test
  /// hook; nullptr restores stderr).
  void CaptureForTest(std::string* out);

  void Write(LogLevel level, const std::string& message,
             const std::vector<LogField>& fields = {});

  /// The process-global logger used by EF_LOG / Logf.
  static Logger& Global();

 private:
  mutable std::mutex mu_;
  LogLevel level_ = LogLevel::kInfo;
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> json_file_{nullptr,
                                                             &std::fclose};
  std::string* capture_ = nullptr;
};

/// printf-style convenience over Logger::Global().
void Logf(LogLevel level, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

}  // namespace obs
}  // namespace errorflow

#endif  // ERRORFLOW_OBS_LOG_H_
