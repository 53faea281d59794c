#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/json.h"

namespace errorflow {
namespace obs {

namespace {

// Prometheus sample values: the JSON number, except that NaN and the
// infinities are legal in the exposition format and have spellings.
std::string PromValue(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return JsonNumber(v);
}

// Metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*; our dotted
// "errorflow.<subsystem>.<metric>" names map dots (and anything else
// outside the alphabet) to underscores.
std::string PromName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
        c == ':';
    const bool digit = c >= '0' && c <= '9';
    out.push_back(alpha || (digit && i > 0) ? c : '_');
  }
  if (out.empty()) out = "_";
  return out;
}

}  // namespace

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return std::numeric_limits<double>::quiet_NaN();
  p = std::min(100.0, std::max(0.0, p));
  const double target = p / 100.0 * static_cast<double>(count);
  uint64_t seen = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const uint64_t next = seen + counts[b];
    if (static_cast<double>(next) >= target) {
      // Interpolate inside bucket b, clamped to the observed [min, max] so
      // a percentile never leaves the recorded range.
      const double lo = std::max(min, b == 0 ? min : bounds[b - 1]);
      const double hi = std::min(max, b < bounds.size() ? bounds[b] : max);
      if (hi <= lo) return hi;
      const double frac =
          (target - static_cast<double>(seen)) / static_cast<double>(counts[b]);
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
    }
    seen = next;
  }
  return max;
}

HistogramSnapshot HistogramSnapshot::DeltaSince(
    const HistogramSnapshot& earlier) const {
  if (earlier.count == 0) return *this;
  if (earlier.bounds != bounds || earlier.counts.size() != counts.size() ||
      earlier.count > count) {
    return *this;
  }
  HistogramSnapshot window;
  window.bounds = bounds;
  window.counts.resize(counts.size());
  for (size_t b = 0; b < counts.size(); ++b) {
    if (earlier.counts[b] > counts[b]) return *this;  // Reset in between.
    window.counts[b] = counts[b] - earlier.counts[b];
  }
  window.count = count - earlier.count;
  window.sum = sum - earlier.sum;
  if (window.count == 0) {
    window.min = std::numeric_limits<double>::quiet_NaN();
    window.max = std::numeric_limits<double>::quiet_NaN();
  } else {
    // Cumulative envelope: per-window extrema are not tracked.
    window.min = min;
    window.max = max;
  }
  return window;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::Record(double value) {
  const size_t bucket =
      static_cast<size_t>(std::upper_bound(bounds_.begin(), bounds_.end(),
                                           value) -
                          bounds_.begin());
  std::lock_guard<std::mutex> lock(mu_);
  counts_[bucket]++;
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  count_++;
  sum_ += value;
}

HistogramSnapshot Histogram::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts = counts_;
  snap.count = count_;
  snap.sum = sum_;
  if (count_ == 0) {
    // No observations: there is no min/max. NaN is unambiguous where the
    // old default of 0.0 silently looked like a recorded sample.
    snap.min = snap.max = std::numeric_limits<double>::quiet_NaN();
  } else {
    snap.min = min_;
    snap.max = max_;
  }
  return snap;
}

void Histogram::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = min_ = max_ = 0.0;
}

std::vector<double> Histogram::DefaultDurationBounds() {
  // 1 us .. 64 s in x4 steps: 14 finite buckets + overflow.
  std::vector<double> bounds;
  for (double b = 1e-6; b < 100.0; b *= 4.0) bounds.push_back(b);
  return bounds;
}

std::vector<double> Histogram::DefaultCountBounds() {
  // 1 .. 1024 in x2 steps: 11 finite buckets + overflow.
  std::vector<double> bounds;
  for (double b = 1.0; b <= 1024.0; b *= 2.0) bounds.push_back(b);
  return bounds;
}

std::vector<double> Histogram::DefaultRatioBounds() {
  // Log-spaced below 1 (tightness is usually far under the bound), then a
  // hard 1.0 edge so violations (> 1) land strictly past it.
  return {1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 0.01, 0.025,
          0.05, 0.1,    0.25, 0.5,  0.75,   0.9,  1.0,  2.0,
          4.0};
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return slot.get();
}

uint64_t MetricsRegistry::CounterValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

double MetricsRegistry::GaugeValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second->value();
}

HistogramSnapshot MetricsRegistry::HistogramSnapshotOf(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? HistogramSnapshot{} : it->second->Snapshot();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + JsonString(name) + ": " + std::to_string(c->value());
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + JsonString(name) + ": " + JsonNumber(g->value());
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    const HistogramSnapshot s = h->Snapshot();
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + JsonString(name) +
           ": {\"count\": " + std::to_string(s.count) +
           ", \"sum\": " + JsonNumber(s.sum) +
           ", \"min\": " + JsonNumber(s.min) +
           ", \"max\": " + JsonNumber(s.max) +
           ", \"p50\": " + JsonNumber(s.p50()) +
           ", \"p95\": " + JsonNumber(s.p95()) +
           ", \"p99\": " + JsonNumber(s.p99()) + ", \"buckets\": [";
    for (size_t b = 0; b < s.counts.size(); ++b) {
      if (b) out += ", ";
      const std::string le =
          b < s.bounds.size() ? JsonNumber(s.bounds[b]) : "\"inf\"";
      out += "{\"le\": " + le + ", \"count\": " + std::to_string(s.counts[b]) +
             "}";
    }
    out += "]}";
  }
  out += "\n  }\n}\n";
  return out;
}

std::string MetricsRegistry::ToPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, c] : counters_) {
    const std::string prom = PromName(name);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + std::to_string(c->value()) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string prom = PromName(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " " + PromValue(g->value()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const HistogramSnapshot s = h->Snapshot();
    const std::string prom = PromName(name);
    out += "# TYPE " + prom + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t b = 0; b < s.counts.size(); ++b) {
      cumulative += s.counts[b];
      const std::string le =
          b < s.bounds.size() ? PromValue(s.bounds[b]) : "+Inf";
      out += prom + "_bucket{le=\"" + le + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += prom + "_sum " + PromValue(s.sum) + "\n";
    out += prom + "_count " + std::to_string(s.count) + "\n";
  }
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace obs
}  // namespace errorflow
