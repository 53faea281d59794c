// Integration: InferencePipeline::Run must populate the documented
// "errorflow.pipeline.*" metrics, and the aggregate view rebuilt from the
// registry must reconcile with the per-run PipelineReports.
#include <cmath>
#include <set>
#include <string>

#include "core/pipeline.h"
#include "gtest/gtest.h"
#include "nn/builders.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/random.h"

namespace errorflow {
namespace core {
namespace {

using obs::MetricsRegistry;
using tensor::Tensor;

nn::Model SmallMlp() {
  nn::MlpConfig cfg;
  cfg.name = "obs-pipe";
  cfg.input_dim = 8;
  cfg.hidden_dims = {12, 12};
  cfg.output_dim = 4;
  cfg.activation = nn::ActivationKind::kTanh;
  cfg.seed = 33;
  return nn::BuildMlp(cfg);
}

Tensor SmoothBatch(int64_t n, int64_t features, uint64_t seed) {
  Tensor batch({n, features});
  util::Rng rng(seed);
  const double phase = rng.Uniform(0, 6.28);
  for (int64_t s = 0; s < n; ++s) {
    for (int64_t f = 0; f < features; ++f) {
      batch.at(s, f) = static_cast<float>(
          0.8 * std::sin(0.01 * static_cast<double>(s) +
                         0.7 * static_cast<double>(f) + phase));
    }
  }
  return batch;
}

const char* const kPhaseHistograms[] = {
    "errorflow.pipeline.compress_seconds",
    "errorflow.pipeline.write_seconds",
    "errorflow.pipeline.read_seconds",
    "errorflow.pipeline.decompress_seconds",
    "errorflow.pipeline.exec_seconds",
};

TEST(PipelineMetricsTest, RunPopulatesDocumentedMetrics) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  const double start_us = obs::NowMicros();

  PipelineConfig cfg;
  cfg.backend = compress::Backend::kSz;
  InferencePipeline pipeline(SmallMlp(), {1, 8}, cfg);
  const Tensor batch = SmoothBatch(128, 8, 5);
  auto report = pipeline.Run(batch, 1e-2);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(registry.CounterValue("errorflow.pipeline.runs"), 1u);
  EXPECT_EQ(registry.CounterValue("errorflow.pipeline.bytes_in"),
            static_cast<uint64_t>(report->original_bytes));
  EXPECT_EQ(registry.CounterValue("errorflow.pipeline.bytes_out"),
            static_cast<uint64_t>(report->compressed_bytes));
  EXPECT_DOUBLE_EQ(registry.GaugeValue("errorflow.pipeline.format"),
                   static_cast<double>(static_cast<int>(report->format)));
  EXPECT_DOUBLE_EQ(
      registry.GaugeValue("errorflow.pipeline.input_tolerance"),
      report->input_tolerance);
  for (const char* name : kPhaseHistograms) {
    EXPECT_EQ(registry.HistogramSnapshotOf(name).count, 1u) << name;
  }

  // The run leaves spans in the global trace buffer, one per phase.
  std::set<std::string> spans;
  for (const obs::TraceEvent& e : obs::TraceBuffer::Global().Snapshot()) {
    if (e.ts_us >= start_us) spans.insert(e.name);
  }
  for (const char* span : {"pipeline.run", "pipeline.compress",
                           "pipeline.write", "pipeline.read",
                           "pipeline.decompress", "pipeline.exec"}) {
    EXPECT_EQ(spans.count(span), 1u) << span;
  }
}

TEST(PipelineMetricsTest, HistogramSumsMatchReportPhaseSeconds) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();

  PipelineConfig cfg;
  cfg.backend = compress::Backend::kSz;
  InferencePipeline pipeline(SmallMlp(), {1, 8}, cfg);

  double compress_sum = 0.0, write_sum = 0.0, read_sum = 0.0;
  double decompress_sum = 0.0, exec_sum = 0.0;
  int64_t bytes_in = 0, bytes_out = 0;
  constexpr int kRuns = 4;
  for (int r = 0; r < kRuns; ++r) {
    const Tensor batch = SmoothBatch(128, 8, 10 + static_cast<uint64_t>(r));
    auto report = pipeline.Run(batch, 1e-2);
    ASSERT_TRUE(report.ok());
    compress_sum += report->compress_seconds;
    write_sum += report->write_seconds;
    read_sum += report->read_seconds;
    decompress_sum += report->decompress_seconds;
    exec_sum += report->exec_seconds;
    bytes_in += report->original_bytes;
    bytes_out += report->compressed_bytes;
  }

  // Histograms accumulate exactly the values copied into the reports, so
  // the sums agree to floating-point addition tolerance.
  const double kTol = 1e-9;
  EXPECT_NEAR(registry
                  .HistogramSnapshotOf("errorflow.pipeline.compress_seconds")
                  .sum,
              compress_sum, kTol);
  EXPECT_NEAR(
      registry.HistogramSnapshotOf("errorflow.pipeline.write_seconds").sum,
      write_sum, kTol);
  EXPECT_NEAR(
      registry.HistogramSnapshotOf("errorflow.pipeline.read_seconds").sum,
      read_sum, kTol);
  EXPECT_NEAR(registry
                  .HistogramSnapshotOf(
                      "errorflow.pipeline.decompress_seconds")
                  .sum,
              decompress_sum, kTol);
  EXPECT_NEAR(
      registry.HistogramSnapshotOf("errorflow.pipeline.exec_seconds").sum,
      exec_sum, kTol);

  // The registry-rebuilt aggregate report reconciles with the same sums.
  const PipelineReport total = PipelineReport::AggregateFromRegistry();
  EXPECT_EQ(registry.CounterValue("errorflow.pipeline.runs"),
            static_cast<uint64_t>(kRuns));
  EXPECT_NEAR(total.compress_seconds, compress_sum, kTol);
  EXPECT_NEAR(total.exec_seconds, exec_sum, kTol);
  EXPECT_NEAR(total.io_seconds, read_sum + decompress_sum, kTol);
  EXPECT_EQ(total.original_bytes, bytes_in);
  EXPECT_EQ(total.compressed_bytes, bytes_out);
  EXPECT_NEAR(total.compression_ratio,
              static_cast<double>(bytes_in) / static_cast<double>(bytes_out),
              1e-9);
  EXPECT_NEAR(total.total_throughput,
              std::min(total.io_throughput, total.exec_throughput), 1e-6);
  EXPECT_FALSE(total.Summary().empty());
}

TEST(PipelineMetricsTest, ReportSummaryMentionsKeyNumbers) {
  MetricsRegistry::Global().Reset();
  PipelineConfig cfg;
  cfg.backend = compress::Backend::kSz;
  InferencePipeline pipeline(SmallMlp(), {1, 8}, cfg);
  const Tensor batch = SmoothBatch(64, 8, 3);
  auto report = pipeline.Run(batch, 1e-2);
  ASSERT_TRUE(report.ok());
  const std::string summary = report->Summary();
  EXPECT_NE(summary.find("format"), std::string::npos);
  EXPECT_NE(summary.find("compress"), std::string::npos);
  EXPECT_NE(summary.find("throughput"), std::string::npos);
  EXPECT_NE(summary.find(quant::FormatToString(report->format)),
            std::string::npos);
}

}  // namespace
}  // namespace core
}  // namespace errorflow
