#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "testing/test_util.h"

namespace errorflow {
namespace obs {
namespace {

TEST(MetricsTest, CounterGaugeBasics) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.counter");
  c->Increment();
  c->Increment(9);
  EXPECT_EQ(c->value(), 10u);
  EXPECT_EQ(registry.CounterValue("test.counter"), 10u);
  EXPECT_EQ(registry.CounterValue("missing"), 0u);

  Gauge* g = registry.GetGauge("test.gauge");
  g->Set(2.5);
  g->Add(0.5);
  EXPECT_DOUBLE_EQ(g->value(), 3.0);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"test.gauge\""), std::string::npos);
  EXPECT_EQ(json.find("test.other"), std::string::npos);
}

TEST(MetricsTest, GetReturnsSameInstance) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.GetCounter("a"), registry.GetCounter("a"));
  EXPECT_EQ(registry.GetGauge("b"), registry.GetGauge("b"));
  EXPECT_EQ(registry.GetHistogram("c"), registry.GetHistogram("c"));
}

TEST(MetricsTest, ConcurrentCountersAndHistogramsAreExact) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  Counter* counter = registry.GetCounter("concurrent.counter");
  Histogram* hist =
      registry.GetHistogram("concurrent.hist", {1.0, 10.0, 100.0});

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        counter->Increment();
        // Integer-valued records so the double sum is exact.
        hist->Record(static_cast<double>((t + i) % 128));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(counter->value(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  const HistogramSnapshot snap = hist->Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kOpsPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t c : snap.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, snap.count);
  // Each thread records sum_{i} (t+i)%128 — recompute exactly.
  double expected_sum = 0.0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kOpsPerThread; ++i) expected_sum += (t + i) % 128;
  }
  EXPECT_DOUBLE_EQ(snap.sum, expected_sum);
}

TEST(MetricsTest, HistogramPercentiles) {
  Histogram hist({10.0, 20.0, 30.0, 40.0});
  for (int i = 1; i <= 100; ++i) hist.Record(static_cast<double>(i % 40));
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_GE(snap.p95(), snap.p50());
  EXPECT_GE(snap.p99(), snap.p95());
  EXPECT_LE(snap.Percentile(100.0), snap.max + 1e-12);
  EXPECT_GE(snap.Percentile(0.0), 0.0);
}

TEST(MetricsTest, EmptyHistogramSnapshotHasNoRange) {
  Histogram hist({1.0});
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.0);
  // No samples -> no min/max/percentiles. NaN, not a phantom 0.0.
  EXPECT_TRUE(std::isnan(snap.min));
  EXPECT_TRUE(std::isnan(snap.max));
  EXPECT_TRUE(std::isnan(snap.p50()));
  EXPECT_TRUE(std::isnan(snap.Percentile(0.0)));
  EXPECT_TRUE(std::isnan(snap.Percentile(100.0)));
}

TEST(MetricsTest, DeltaSinceIsolatesTheWindow) {
  Histogram hist({1.0, 10.0, 100.0});
  for (int i = 0; i < 50; ++i) hist.Record(0.5);  // Old history: fast.
  const HistogramSnapshot baseline = hist.Snapshot();
  for (int i = 0; i < 10; ++i) hist.Record(50.0);  // Window: slow.

  const HistogramSnapshot now = hist.Snapshot();
  const HistogramSnapshot window = now.DeltaSince(baseline);
  EXPECT_EQ(window.count, 10u);
  EXPECT_DOUBLE_EQ(window.sum, 500.0);
  // The cumulative p50 is dragged down by the 50 old fast samples; the
  // window's is not — that is the point of the delta.
  EXPECT_LT(now.p50(), 1.0);
  EXPECT_GT(window.p50(), 10.0);
  // min/max carry the cumulative envelope (Percentile interpolation
  // clamps to [min, max]; NaN there would poison it).
  EXPECT_DOUBLE_EQ(window.min, now.min);
  EXPECT_DOUBLE_EQ(window.max, now.max);
}

TEST(MetricsTest, DeltaSinceEmptyBaselineIsIdentity) {
  Histogram hist({1.0});
  hist.Record(0.5);
  const HistogramSnapshot empty;
  const HistogramSnapshot now = hist.Snapshot();
  const HistogramSnapshot window = now.DeltaSince(empty);
  EXPECT_EQ(window.count, now.count);
  EXPECT_DOUBLE_EQ(window.sum, now.sum);
}

TEST(MetricsTest, DeltaSinceGuardsAgainstResetAndMismatch) {
  Histogram hist({1.0, 10.0});
  for (int i = 0; i < 5; ++i) hist.Record(5.0);
  const HistogramSnapshot before = hist.Snapshot();
  hist.Reset();
  hist.Record(0.5);
  // Counts went backwards across the Reset: the delta is meaningless, so
  // DeltaSince degrades to the cumulative (post-reset) snapshot.
  const HistogramSnapshot after = hist.Snapshot();
  const HistogramSnapshot window = after.DeltaSince(before);
  EXPECT_EQ(window.count, after.count);
  EXPECT_DOUBLE_EQ(window.sum, after.sum);

  // Bucket-layout mismatch likewise degrades instead of mixing layouts.
  Histogram other({2.0, 20.0, 200.0});
  other.Record(1.0);
  const HistogramSnapshot mismatched =
      hist.Snapshot().DeltaSince(other.Snapshot());
  EXPECT_EQ(mismatched.count, hist.Snapshot().count);
}

TEST(MetricsTest, EmptyHistogramStaysValidJson) {
  MetricsRegistry registry;
  registry.GetHistogram("empty.hist");
  const std::string json = registry.ToJson();
  // Non-finite snapshot fields must render as null, not bare nan tokens.
  EXPECT_NE(json.find("\"min\": null"), std::string::npos);
  EXPECT_NE(json.find("\"max\": null"), std::string::npos);
  EXPECT_NE(json.find("\"p50\": null"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(MetricsTest, SingleSampleHistogramIsDegenerate) {
  Histogram hist(Histogram::DefaultRatioBounds());
  hist.Record(0.37);
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.min, 0.37);
  EXPECT_DOUBLE_EQ(snap.max, 0.37);
  // Every percentile of a single sample is that sample.
  EXPECT_DOUBLE_EQ(snap.Percentile(0.0), 0.37);
  EXPECT_DOUBLE_EQ(snap.p50(), 0.37);
  EXPECT_DOUBLE_EQ(snap.Percentile(100.0), 0.37);
}

TEST(MetricsTest, ResetHistogramReturnsToNoRange) {
  Histogram hist({1.0, 2.0});
  hist.Record(1.5);
  hist.Reset();
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_TRUE(std::isnan(snap.min));
  EXPECT_TRUE(std::isnan(snap.p95()));
}

TEST(MetricsTest, RatioBoundsHaveExplicitViolationEdge) {
  const std::vector<double> bounds = Histogram::DefaultRatioBounds();
  ASSERT_FALSE(bounds.empty());
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]) << "bounds must strictly increase";
  }
  // A 1.0 edge must exist so tightness > 1 (bound violated) is separable.
  EXPECT_NE(std::find(bounds.begin(), bounds.end(), 1.0), bounds.end());
}

TEST(MetricsTest, ResetZeroesInPlaceAndKeepsPointersValid) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("r.counter");
  Gauge* g = registry.GetGauge("r.gauge");
  Histogram* h = registry.GetHistogram("r.hist");
  c->Increment(5);
  g->Set(7.0);
  h->Record(0.25);
  registry.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  EXPECT_EQ(h->Snapshot().count, 0u);
  // The same instances keep working after the reset.
  EXPECT_EQ(registry.GetCounter("r.counter"), c);
  c->Increment();
  EXPECT_EQ(c->value(), 1u);
}

TEST(MetricsTest, JsonAndTextExportContainMetrics) {
  MetricsRegistry registry;
  registry.GetCounter("export.counter")->Increment(3);
  registry.GetGauge("export.gauge")->Set(1.5);
  registry.GetHistogram("export.hist")->Record(0.5);

  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"export.counter\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"export.gauge\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"export.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);

  const std::string text = registry.ToPrometheus();
  EXPECT_NE(text.find("export_counter 3"), std::string::npos);
  EXPECT_NE(text.find("export_hist_count 1"), std::string::npos);
}

TEST(MetricsTest, ControlCharactersInNamesAreEscaped) {
  MetricsRegistry registry;
  registry.GetCounter("x\ty")->Increment(2);
  registry.GetGauge("g\rh")->Set(0.5);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"x\\ty\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"g\\rh\": 0.5"), std::string::npos);
  EXPECT_FALSE(testing::HasRawControlByte(json)) << json;
}

TEST(MetricsTest, PrometheusExposition) {
  MetricsRegistry registry;
  registry.GetCounter("errorflow.serve.completed")->Increment(7);
  registry.GetGauge("errorflow.serve.queue_depth")->Set(3.0);
  Histogram* h = registry.GetHistogram("errorflow.bound.tightness",
                                       {0.5, 1.0});
  h->Record(0.25);
  h->Record(0.25);
  h->Record(0.75);
  h->Record(2.0);

  const std::string prom = registry.ToPrometheus();
  // Dots sanitized to underscores, with TYPE headers per family.
  EXPECT_NE(prom.find("# TYPE errorflow_serve_completed counter\n"
                      "errorflow_serve_completed 7\n"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE errorflow_serve_queue_depth gauge\n"
                      "errorflow_serve_queue_depth 3\n"),
            std::string::npos);
  // Histogram buckets are cumulative and end with +Inf == _count.
  EXPECT_NE(prom.find("errorflow_bound_tightness_bucket{le=\"0.5\"} 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("errorflow_bound_tightness_bucket{le=\"1\"} 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("errorflow_bound_tightness_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(prom.find("errorflow_bound_tightness_sum 3.25\n"),
            std::string::npos);
  EXPECT_NE(prom.find("errorflow_bound_tightness_count 4\n"),
            std::string::npos);
  // No raw dotted names may survive sanitization.
  EXPECT_EQ(prom.find("errorflow."), std::string::npos);
}

TEST(MetricsTest, GlobalRegistryIsSingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

}  // namespace
}  // namespace obs
}  // namespace errorflow
