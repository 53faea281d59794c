// Measurement arithmetic shared by the benchmark and its tests: the
// percentile rule, open-loop arrival schedules, the rate-ladder search and
// span self time. Nothing here calls into the program under test.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise the sample cannot tell it from the maximum.
inline constexpr int64_t kMinSamplesBeyond = 10;

/// Linear-interpolated percentile `p` in [0, 100] of an ascending sample;
/// 0 for an empty sample.
double PercentileOfSorted(const std::vector<double>& sorted, double p);

/// Number of samples of `n` that lie beyond the p-th percentile:
/// n - ceil(n * p / 100).
int64_t SamplesBeyond(size_t n, double p);

/// A percentile together with the sample it came from.
struct Quantile {
  double value = 0.0;
  size_t count = 0;
  int64_t beyond = 0;
  /// True when `beyond >= kMinSamplesBeyond`.
  bool supported = false;
};

/// The p-th percentile of `samples` (any order) with its support.
Quantile PercentileOf(std::vector<double> samples, double p);

/// Median of `samples` (any order); 0 for an empty sample.
double Median(std::vector<double> samples);

/// Deterministic 64-bit generator (splitmix64), so schedules depend only
/// on the seed and never on the program's own random number code.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in (0, 1].
  double UniformOpenZero();

 private:
  uint64_t state_;
};

/// Open-loop arrival offsets, in seconds from the start of a phase, for
/// `round(rate * seconds)` requests: the arrival times of a Poisson
/// process of that rate conditioned on its count (cumulative exponential
/// gaps scaled onto [0, seconds)). Fixing the count keeps the offered
/// load identical across seeds; the seed only moves the arrival times.
std::vector<double> PoissonArrivals(double rate, double seconds,
                                    uint64_t seed);

/// Outcome of one rung of the rate ladder.
struct Rung {
  double rate = 0.0;
  /// False when the measurement itself was invalid (the generator ran
  /// late); an invalid rung ends the search like a failing one.
  bool valid = true;
  bool passed = false;
};

struct LadderResult {
  /// Highest rate that passed; `floor_rate` when no rung above it did.
  double max_rate = 0.0;
  std::vector<Rung> rungs;
};

/// Finds the highest sustainable rate. Rungs climb from `floor_rate`
/// (known to pass) by `factor` until one fails or `ceiling_rate` is
/// reached; then `refinements` geometric bisections narrow the bracket
/// between the last passing and the first failing rung.
LadderResult LadderSearch(double floor_rate, double factor,
                          double ceiling_rate, int refinements,
                          const std::function<Rung(double rate)>& run_rung);

/// One timed interval recorded by the benchmark around a call into the
/// program. Times are seconds since the run's clock origin.
struct Span {
  std::string name;
  int64_t id = 0;
  /// Id of the enclosing span, or -1 for a root.
  int64_t parent = -1;
  double start = 0.0;
  double end = 0.0;
};

/// Duration of `spans[index]` minus the part of it covered by its direct
/// children (overlapping children are counted once).
double SelfTime(const std::vector<Span>& spans, size_t index);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
