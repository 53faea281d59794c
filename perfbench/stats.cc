#include "stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

double PercentileOfSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double pos = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

int64_t SamplesBeyond(size_t n, double p) {
  const double at_or_below = std::ceil(static_cast<double>(n) * p / 100.0);
  return static_cast<int64_t>(n) - static_cast<int64_t>(at_or_below);
}

Quantile PercentileOf(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  Quantile q;
  q.value = PercentileOfSorted(samples, p);
  q.count = samples.size();
  q.beyond = SamplesBeyond(samples.size(), p);
  q.supported = q.beyond >= kMinSamplesBeyond;
  return q;
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return PercentileOfSorted(samples, 50.0);
}

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double SplitMix64::UniformOpenZero() {
  // 53 random mantissa bits, shifted off zero so log() stays finite.
  return (static_cast<double>(Next() >> 11) + 1.0) * 0x1.0p-53;
}

std::vector<double> PoissonArrivals(double rate, double seconds,
                                    uint64_t seed) {
  const auto count = static_cast<size_t>(std::llround(rate * seconds));
  if (count == 0 || !(seconds > 0.0)) return {};
  SplitMix64 rng(seed);
  // Cumulative sums of count + 1 exponential gaps; dividing by the last
  // one gives the order statistics of `count` uniforms on [0, 1).
  std::vector<double> arrivals(count);
  double t = 0.0;
  for (double& a : arrivals) {
    t += -std::log(rng.UniformOpenZero());
    a = t;
  }
  t += -std::log(rng.UniformOpenZero());
  for (double& a : arrivals) a = a / t * seconds;
  return arrivals;
}

LadderResult LadderSearch(double floor_rate, double factor,
                          double ceiling_rate, int refinements,
                          const std::function<Rung(double rate)>& run_rung) {
  LadderResult result;
  double lo = floor_rate;
  double hi = 0.0;
  for (double rate = floor_rate * factor; lo < ceiling_rate;
       rate *= factor) {
    const Rung rung = run_rung(std::min(rate, ceiling_rate));
    result.rungs.push_back(rung);
    if (!rung.valid || !rung.passed) {
      hi = rung.rate;
      break;
    }
    lo = rung.rate;
  }
  for (int i = 0; i < refinements && hi > 0.0; ++i) {
    const Rung rung = run_rung(std::sqrt(lo * hi));
    result.rungs.push_back(rung);
    if (rung.valid && rung.passed) {
      lo = rung.rate;
    } else {
      hi = rung.rate;
    }
  }
  result.max_rate = lo;
  return result;
}

double SelfTime(const std::vector<Span>& spans, size_t index) {
  const Span& span = spans[index];
  std::vector<std::pair<double, double>> children;
  for (const Span& s : spans) {
    if (s.parent != span.id || &s == &span) continue;
    const double a = std::max(s.start, span.start);
    const double b = std::min(s.end, span.end);
    if (b > a) children.emplace_back(a, b);
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = span.start;
  for (const auto& [a, b] : children) {
    const double from = std::max(a, reach);
    if (b > from) covered += b - from;
    reach = std::max(reach, b);
  }
  return (span.end - span.start) - covered;
}

}  // namespace perfbench
