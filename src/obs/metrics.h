#ifndef ERRORFLOW_OBS_METRICS_H_
#define ERRORFLOW_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace errorflow {
namespace obs {

/// \brief Monotonic event counter. Lock-free; exact under concurrency.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Last-written scalar (e.g. queue depth, current loss).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    // fetch_add on atomic<double> requires C++20 library support that gcc
    // only provides on some targets; CAS-loop instead.
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// \brief Immutable view of a histogram at one point in time.
///
/// An empty snapshot (`count == 0`) has no observed range: min/max and
/// every percentile are NaN (check `count` or std::isnan before use; the
/// JSON export renders them as null). With one sample, min == max ==
/// every percentile == that sample.
struct HistogramSnapshot {
  /// Upper bounds of the finite buckets; an implicit +inf bucket follows.
  std::vector<double> bounds;
  /// counts.size() == bounds.size() + 1.
  std::vector<uint64_t> counts;
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // NaN when count == 0.
  double max = 0.0;  // NaN when count == 0.

  /// Percentile in [0, 100] by linear interpolation inside the bucket;
  /// NaN when the snapshot is empty.
  double Percentile(double p) const;
  double p50() const { return Percentile(50.0); }
  double p95() const { return Percentile(95.0); }
  double p99() const { return Percentile(99.0); }

  /// The window of samples recorded between `earlier` and this snapshot:
  /// per-bucket counts, count, and sum are exact differences, so
  /// Percentile() describes only the window — the signal an adaptive
  /// controller needs, where the cumulative histogram would blend in
  /// ancient history. min/max keep this snapshot's cumulative envelope
  /// (per-window extrema are not tracked), which is conservative for the
  /// percentile clamp. If `earlier` is not an older snapshot of the same
  /// histogram (bucket mismatch, or counts that went backwards across a
  /// Reset), returns *this unchanged.
  HistogramSnapshot DeltaSince(const HistogramSnapshot& earlier) const;
};

/// \brief Fixed-bucket histogram. Recording takes a short per-histogram
/// lock; counts and sum are exact.
class Histogram {
 public:
  /// `bounds` must be strictly increasing upper bucket edges.
  explicit Histogram(std::vector<double> bounds);

  void Record(double value);
  HistogramSnapshot Snapshot() const;
  void Reset();

  /// Default duration buckets: 1 us to ~100 s, roughly x4 per step.
  static std::vector<double> DefaultDurationBounds();

  /// Power-of-two count buckets (1, 2, 4, ... 1024) for cardinality-style
  /// histograms such as batch sizes and fan-out counts.
  static std::vector<double> DefaultCountBounds();

  /// Buckets for dimensionless ratios in (0, inf) such as the
  /// achieved-error / admitted-bound tightness: log-spaced below 1 with an
  /// explicit 1.0 edge, so everything past the 1.0 bucket is a violation.
  static std::vector<double> DefaultRatioBounds();

 private:
  mutable std::mutex mu_;
  std::vector<double> bounds_;
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// \brief Thread-safe registry of named counters, gauges, and histograms.
///
/// Get* returns a stable pointer that callers may cache for the process
/// lifetime: Reset() zeroes metrics in place and never invalidates
/// pointers, so instrumentation sites can hold onto them across test
/// resets. Names follow "errorflow.<subsystem>.<metric>" (see
/// docs/OBSERVABILITY.md).
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// First call fixes the bucket bounds; later calls ignore `bounds`.
  Histogram* GetHistogram(
      const std::string& name,
      std::vector<double> bounds = Histogram::DefaultDurationBounds());

  // Read-only lookups; missing names yield 0 / an empty snapshot.
  uint64_t CounterValue(const std::string& name) const;
  double GaugeValue(const std::string& name) const;
  HistogramSnapshot HistogramSnapshotOf(const std::string& name) const;

  /// Zeroes every metric in place. Pointers stay valid (test hook).
  void Reset();

  /// Full dump: {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  /// Non-finite values (e.g. the NaN min/max of an empty histogram) render
  /// as null, keeping the output strict JSON.
  std::string ToJson() const;
  /// Prometheus text exposition format (version 0.0.4): names sanitized to
  /// [a-zA-Z0-9_:], counters/gauges as single samples, histograms as
  /// cumulative `_bucket{le=...}` series plus `_sum`/`_count`.
  std::string ToPrometheus() const;

  /// The process-global registry used by the built-in instrumentation.
  static MetricsRegistry& Global();

 private:
  mutable std::mutex mu_;
  // std::map for deterministic export ordering.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace errorflow

#endif  // ERRORFLOW_OBS_METRICS_H_
