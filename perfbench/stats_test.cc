#include "stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(PercentileRuleTest, NeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10);
  EXPECT_EQ(SamplesBeyond(999, 99), 9);
  EXPECT_EQ(SamplesBeyond(100, 90), 10);
  EXPECT_EQ(SamplesBeyond(100, 50), 50);

  const Quantile p99 = PercentileOf(Iota(1000), 99);
  EXPECT_TRUE(p99.supported);
  EXPECT_EQ(p99.count, 1000u);
  EXPECT_EQ(p99.beyond, 10);

  const Quantile thin = PercentileOf(Iota(999), 99);
  EXPECT_FALSE(thin.supported);
  EXPECT_EQ(thin.beyond, 9);
}

TEST(PercentileRuleTest, InterpolatesAndIgnoresOrder) {
  std::vector<double> v = Iota(100);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(PercentileOf(v, 50).value, 50.5);
  EXPECT_DOUBLE_EQ(Median(v), 50.5);
  EXPECT_DOUBLE_EQ(PercentileOf(v, 0).value, 1.0);
  EXPECT_DOUBLE_EQ(PercentileOf(v, 100).value, 100.0);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(PoissonArrivalsTest, SameSeedSameSchedule) {
  const auto a = PoissonArrivals(1000, 2.0, 42);
  const auto b = PoissonArrivals(1000, 2.0, 42);
  const auto c = PoissonArrivals(1000, 2.0, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(PoissonArrivalsTest, FixedCountSortedWithinPhase) {
  const auto a = PoissonArrivals(1000, 2.0, 7);
  ASSERT_EQ(a.size(), 2000u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 2.0);
  EXPECT_TRUE(PoissonArrivals(1000, 0.0, 7).empty());
}

TEST(PoissonArrivalsTest, GapsLookExponential) {
  const auto a = PoissonArrivals(1000, 20.0, 3);
  std::vector<double> gaps;
  for (size_t i = 1; i < a.size(); ++i) gaps.push_back(a[i] - a[i - 1]);
  double mean = 0.0;
  for (double g : gaps) mean += g;
  mean /= static_cast<double>(gaps.size());
  double var = 0.0;
  for (double g : gaps) var += (g - mean) * (g - mean);
  var /= static_cast<double>(gaps.size());
  EXPECT_NEAR(mean, 1e-3, 2e-5);
  // An exponential gap has a coefficient of variation of 1.
  EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.05);
}

// A server whose p99 latency grows without bound as the rate approaches
// its capacity; a rung passes when p99 stays within 20 ms.
Rung SyntheticRung(double rate, double capacity) {
  Rung rung;
  rung.rate = rate;
  const double p99_ms =
      rate >= capacity ? 1e9 : 0.5 / (1.0 - rate / capacity);
  rung.passed = p99_ms <= 20.0;
  return rung;
}

TEST(LadderSearchTest, FindsTheLimitOnSyntheticLatencies) {
  const double capacity = 3000.0;
  const double limit = capacity * (1.0 - 0.5 / 20.0);  // p99 == 20 ms.
  const LadderResult r = LadderSearch(
      1000, 1.25, 20000, 3,
      [&](double rate) { return SyntheticRung(rate, capacity); });
  EXPECT_LE(r.max_rate, limit);
  // Three bisections narrow a 1.25x bracket to 1.25^(1/8).
  EXPECT_GE(r.max_rate, limit / std::pow(1.25, 1.0 / 8.0));
  // Rungs 1250 .. 3052 climb (3052 fails), then three bisections.
  EXPECT_EQ(r.rungs.size(), 5u + 3u);
}

TEST(LadderSearchTest, CeilingAndInvalidRungs) {
  const LadderResult all_pass =
      LadderSearch(1000, 1.25, 2000, 3, [](double rate) {
        return Rung{rate, true, true};
      });
  EXPECT_DOUBLE_EQ(all_pass.max_rate, 2000);
  EXPECT_DOUBLE_EQ(all_pass.rungs.back().rate, 2000);

  // An invalid rung counts as a failure even if its latency passed.
  const LadderResult invalid =
      LadderSearch(1000, 2.0, 100000, 0, [](double rate) {
        return Rung{rate, rate < 4000, true};
      });
  EXPECT_DOUBLE_EQ(invalid.max_rate, 2000);

  const LadderResult first_fails =
      LadderSearch(1000, 1.25, 20000, 2, [](double rate) {
        return Rung{rate, true, false};
      });
  EXPECT_DOUBLE_EQ(first_fails.max_rate, 1000);
  EXPECT_EQ(first_fails.rungs.size(), 3u);
}

TEST(SelfTimeTest, SubtractsUnionOfDirectChildren) {
  std::vector<Span> spans = {
      {"batch", 0, -1, 0.0, 10.0},
      {"a", 1, 0, 1.0, 3.0},
      {"b", 2, 0, 2.0, 5.0},   // Overlaps a: [1, 5) counted once.
      {"c", 3, 0, 7.0, 8.0},
      {"d", 4, 0, 9.0, 12.0},  // Clipped to the parent: [9, 10).
      {"grandchild", 5, 3, 7.0, 7.5},
  };
  EXPECT_DOUBLE_EQ(SelfTime(spans, 0), 10.0 - 4.0 - 1.0 - 1.0);
  EXPECT_DOUBLE_EQ(SelfTime(spans, 3), 0.5);
  EXPECT_DOUBLE_EQ(SelfTime(spans, 1), 2.0);
}

}  // namespace
}  // namespace perfbench
