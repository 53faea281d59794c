#ifndef ERRORFLOW_OBS_TRACE_H_
#define ERRORFLOW_OBS_TRACE_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace errorflow {
namespace obs {

/// \brief One completed span: a Chrome trace_event "X" (complete) event.
struct TraceEvent {
  std::string name;
  double ts_us = 0.0;   ///< Start, microseconds since process start.
  double dur_us = 0.0;  ///< Duration, microseconds.
  uint32_t tid = 0;     ///< Small sequential id, stable per thread.
  /// Span annotations exported as the Chrome "args" object. Values are
  /// pre-rendered JSON (already quoted/escaped for strings), so the
  /// exporter can emit them verbatim.
  std::vector<std::pair<std::string, std::string>> args;
};

/// Small sequential id for the calling thread (0 for the first thread that
/// asks, 1 for the next, ...). Used as the trace "tid" so exports stay
/// readable.
uint32_t CurrentThreadId();

/// Microseconds since process start on the monotonic clock.
double NowMicros();

/// \brief Lock-sharded in-memory ring buffer of completed spans.
///
/// Writers append to the shard picked by their thread id, so concurrent
/// spans on different threads rarely contend. Snapshot() merges and sorts
/// by start time. Each shard is a bounded ring: once a shard holds its
/// kShardCapacity events, new events overwrite the oldest in that shard,
/// so long-running serving cannot grow the buffer without bound.
class TraceBuffer {
 public:
  static constexpr size_t kShards = 16;
  /// Events one shard keeps: 262144 across the buffer.
  static constexpr size_t kShardCapacity = 262144 / kShards;

  void Record(TraceEvent event);

  /// All retained events, sorted by start timestamp.
  std::vector<TraceEvent> Snapshot() const;

  /// Chrome trace_event JSON array (load in chrome://tracing or Perfetto):
  /// [{"name": ..., "ph": "X", "ts": ..., "dur": ..., "pid": 1, "tid": ...}]
  std::string ToChromeJson() const;

  /// Flat per-name aggregate: count, total ms, mean ms.
  std::string Summary() const;

  /// The process-global buffer used by the built-in instrumentation.
  static TraceBuffer& Global();

 private:
  struct Shard {
    mutable std::mutex mu;
    /// Ring storage: grows until kShardCapacity, then wraps at `next`.
    std::vector<TraceEvent> events;
    size_t next = 0;
  };
  std::array<Shard, kShards> shards_;
};

/// \brief RAII span: records name/start/duration/thread-id into a
/// TraceBuffer when it goes out of scope.
///
///   {
///     obs::TraceSpan span("pipeline.compress");
///     ...work...
///   }  // recorded here
class TraceSpan {
 public:
  explicit TraceSpan(std::string name,
                     TraceBuffer* buffer = &TraceBuffer::Global());
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// \name Annotations, exported as the Chrome trace "args" object.
  /// Attach per-request context (model, format, bound, tightness) to the
  /// span; no-ops after End().
  /// @{
  void Annotate(const std::string& key, const std::string& value);
  void Annotate(const std::string& key, double value);
  void Annotate(const std::string& key, bool value);
  /// A string literal would convert to bool: pass a std::string.
  void Annotate(const std::string& key, const char* value) = delete;
  /// @}

  /// Closes the span early (idempotent).
  void End();

 private:
  std::string name_;
  TraceBuffer* buffer_;
  double start_us_;
  bool ended_ = false;
  std::vector<std::pair<std::string, std::string>> args_;
};

}  // namespace obs
}  // namespace errorflow

#endif  // ERRORFLOW_OBS_TRACE_H_
