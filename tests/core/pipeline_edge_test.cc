// Edge-case coverage for the inference pipeline: extreme quantization
// fractions, disabled quantization, unsupported norm/backend pairings,
// tolerance degeneracies and batches without samples.
#include <cmath>
#include <limits>

#include "core/pipeline.h"
#include "gtest/gtest.h"
#include "nn/builders.h"
#include "testing/test_util.h"

namespace errorflow {
namespace core {
namespace {

using quant::NumericFormat;
using tensor::Norm;
using tensor::Tensor;

nn::Model EdgeMlp() {
  nn::MlpConfig cfg;
  cfg.input_dim = 6;
  cfg.hidden_dims = {10};
  cfg.output_dim = 3;
  cfg.seed = 81;
  return nn::BuildMlp(cfg);
}

Tensor EdgeBatch(uint64_t seed) {
  Tensor batch({128, 6});
  for (int64_t s = 0; s < 128; ++s) {
    for (int64_t f = 0; f < 6; ++f) {
      batch.at(s, f) = static_cast<float>(
          0.7 * std::sin(0.02 * static_cast<double>(s) +
                         static_cast<double>(f + seed)));
    }
  }
  return batch;
}

TEST(PipelineEdgeTest, ZfpWithL2NormFailsCleanly) {
  PipelineConfig cfg;
  cfg.backend = compress::Backend::kZfp;
  cfg.norm = Norm::kL2;
  InferencePipeline pipeline(EdgeMlp(), {1, 6}, cfg);
  auto report = pipeline.Run(EdgeBatch(1), 1e-2);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNotImplemented);
}

TEST(PipelineEdgeTest, QuantFractionZeroNeverQuantizes) {
  PipelineConfig cfg;
  cfg.backend = compress::Backend::kSz;
  cfg.quant_fraction = 0.0;
  InferencePipeline pipeline(EdgeMlp(), {1, 6}, cfg);
  for (double tol : {1e-3, 1e-1, 10.0}) {
    EXPECT_EQ(pipeline.Plan(tol).format, NumericFormat::kFP32) << tol;
  }
}

TEST(PipelineEdgeTest, QuantFractionOneStillBoundsTotal) {
  PipelineConfig cfg;
  cfg.backend = compress::Backend::kSz;
  cfg.quant_fraction = 1.0;
  InferencePipeline pipeline(EdgeMlp(), {1, 6}, cfg);
  const Tensor batch = EdgeBatch(2);
  auto report = pipeline.Run(batch, 0.5);
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report->achieved_qoi_error, report->predicted_qoi_bound);
  EXPECT_LE(report->predicted_qoi_bound, 0.5 * (1 + 1e-9));
}

TEST(PipelineEdgeTest, AllowQuantizationFalse) {
  PipelineConfig cfg;
  cfg.backend = compress::Backend::kSz;
  cfg.quant_fraction = 0.0;  // Quantization off: no budget for it.
  InferencePipeline pipeline(EdgeMlp(), {1, 6}, cfg);
  const AllocationPlan plan = pipeline.Plan(100.0);
  EXPECT_EQ(plan.format, NumericFormat::kFP32);
  EXPECT_GT(plan.input_tolerance, 0.0);
}

TEST(PipelineEdgeTest, TinyToleranceStillRunsLosslessly) {
  PipelineConfig cfg;
  cfg.backend = compress::Backend::kSz;
  InferencePipeline pipeline(EdgeMlp(), {1, 6}, cfg);
  const Tensor batch = EdgeBatch(3);
  auto report = pipeline.Run(batch, 1e-12);
  ASSERT_TRUE(report.ok());
  // Nearly lossless: achieved error far below even this tolerance.
  EXPECT_LE(report->achieved_qoi_error, report->predicted_qoi_bound);
  EXPECT_LE(report->compression_ratio, 3.0);  // Little room to compress.
}

TEST(PipelineEdgeTest, RepeatedRunsAreDeterministic) {
  PipelineConfig cfg;
  cfg.backend = compress::Backend::kZfp;
  InferencePipeline pipeline(EdgeMlp(), {1, 6}, cfg);
  const Tensor batch = EdgeBatch(4);
  auto a = pipeline.Run(batch, 1e-2);
  auto b = pipeline.Run(batch, 1e-2);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->achieved_qoi_error, b->achieved_qoi_error);
  EXPECT_EQ(a->compressed_bytes, b->compressed_bytes);
  EXPECT_EQ(a->format, b->format);
}

nn::Model EdgeResNet() {
  nn::ResNetConfig rcfg;
  rcfg.in_channels = 2;
  rcfg.num_classes = 3;
  rcfg.stage_channels = {4};
  rcfg.stage_blocks = {1};
  rcfg.seed = 82;
  return nn::BuildResNet(rcfg);
}

TEST(PipelineEdgeTest, EuroSatStyleRank4Batch) {
  PipelineConfig cfg;
  cfg.backend = compress::Backend::kZfp;
  InferencePipeline pipeline(EdgeResNet(), {1, 2, 8, 8}, cfg);
  const Tensor batch = testing::RandomUniformTensor({8, 2, 8, 8}, 5);
  auto report = pipeline.Run(batch, 1e-1);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_LE(report->achieved_qoi_error, report->predicted_qoi_bound);
}

// A batch without samples has no per-sample error to measure; Run rejects
// it up front (as InferenceServer::Submit does) instead of dividing by the
// zero row count.
TEST(PipelineEdgeTest, ZeroRowMlpBatchIsInvalidArgument) {
  PipelineConfig cfg;
  cfg.backend = compress::Backend::kSz;
  InferencePipeline pipeline(EdgeMlp(), {1, 6}, cfg);
  auto report = pipeline.Run(Tensor({0, 6}), 1e-2);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

// NaN and negative tolerances fail Run's own check (the planner cannot
// allocate them); an infinite one plans an infinite compression tolerance,
// which the compressor refuses.
TEST(PipelineEdgeTest, ToleranceItCannotHonourIsInvalidArgument) {
  InferencePipeline pipeline(EdgeMlp(), {1, 6}, PipelineConfig{});
  for (double tol : {std::numeric_limits<double>::quiet_NaN(), -1e-2,
                     std::numeric_limits<double>::infinity()}) {
    auto report = pipeline.Run(EdgeBatch(7), tol);
    ASSERT_FALSE(report.ok()) << tol;
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument) << tol;
  }
}

TEST(PipelineEdgeTest, ZeroRowRank4BatchIsInvalidArgument) {
  PipelineConfig cfg;
  cfg.backend = compress::Backend::kZfp;
  InferencePipeline pipeline(EdgeResNet(), {1, 2, 8, 8}, cfg);
  auto report = pipeline.Run(Tensor({0, 2, 8, 8}), 1e-1);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace core
}  // namespace errorflow
