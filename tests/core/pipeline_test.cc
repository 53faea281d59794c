#include "core/pipeline.h"

#include <bit>
#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "nn/builders.h"
#include "nn/conv2d.h"
#include "tensor/kernels.h"
#include "testing/test_util.h"

namespace errorflow {
namespace core {
namespace {

using quant::NumericFormat;
using tensor::Norm;
using tensor::Tensor;

nn::Model PipelineMlp(uint64_t seed = 21) {
  nn::MlpConfig cfg;
  cfg.name = "pipe";
  cfg.input_dim = 8;
  cfg.hidden_dims = {12, 12};
  cfg.output_dim = 4;
  cfg.activation = nn::ActivationKind::kTanh;
  cfg.seed = seed;
  return nn::BuildMlp(cfg);
}

// Smooth, correlated batch in [-1, 1] (compressible, normalized).
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

TEST(PipelineTest, AchievedErrorWithinPredictedBound) {
  for (compress::Backend backend :
       {compress::Backend::kSz, compress::Backend::kZfp,
        compress::Backend::kMgard}) {
    PipelineConfig cfg;
    cfg.backend = backend;
    cfg.norm = Norm::kLinf;
    cfg.quant_fraction = 0.5;
    InferencePipeline pipeline(PipelineMlp(), {1, 8}, cfg);
    const Tensor batch = SmoothBatch(256, 8, 1);
    for (double tol : {1e-1, 1e-2, 1e-3}) {
      auto report = pipeline.Run(batch, tol);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_LE(report->achieved_qoi_error, report->predicted_qoi_bound)
          << compress::BackendToString(backend) << " tol " << tol;
      EXPECT_LE(report->predicted_qoi_bound, tol * (1 + 1e-9));
      EXPECT_LE(report->achieved_input_error,
                report->input_tolerance * (1 + 1e-5));
    }
  }
}

TEST(PipelineTest, L2NormPipeline) {
  PipelineConfig cfg;
  cfg.backend = compress::Backend::kMgard;
  cfg.norm = Norm::kL2;
  InferencePipeline pipeline(PipelineMlp(), {1, 8}, cfg);
  const Tensor batch = SmoothBatch(128, 8, 2);
  auto report = pipeline.Run(batch, 1e-2);
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report->achieved_qoi_error, report->predicted_qoi_bound);
}

TEST(PipelineTest, ThroughputAccountingConsistent) {
  PipelineConfig cfg;
  cfg.backend = compress::Backend::kSz;
  InferencePipeline pipeline(PipelineMlp(), {1, 8}, cfg);
  const Tensor batch = SmoothBatch(512, 8, 3);
  auto report = pipeline.Run(batch, 1e-2);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->original_bytes, batch.size() * 4);
  EXPECT_GT(report->compressed_bytes, 0);
  EXPECT_NEAR(report->compression_ratio,
              static_cast<double>(report->original_bytes) /
                  report->compressed_bytes,
              1e-9);
  EXPECT_NEAR(report->io_seconds,
              report->read_seconds + report->decompress_seconds, 1e-12);
  EXPECT_NEAR(report->total_throughput,
              std::min(report->io_throughput, report->exec_throughput),
              1e-6);
}

TEST(PipelineTest, LooserToleranceNeverSlower) {
  PipelineConfig cfg;
  cfg.backend = compress::Backend::kSz;
  InferencePipeline pipeline(PipelineMlp(), {1, 8}, cfg);
  const Tensor batch = SmoothBatch(512, 8, 4);
  auto tight = pipeline.Run(batch, 1e-4);
  auto loose = pipeline.Run(batch, 1e-1);
  ASSERT_TRUE(tight.ok() && loose.ok());
  EXPECT_GE(loose->compression_ratio, tight->compression_ratio);
  EXPECT_GE(loose->exec_throughput, tight->exec_throughput * (1 - 1e-9));
}

TEST(PipelineTest, PlanMatchesRunDecision) {
  PipelineConfig cfg;
  cfg.backend = compress::Backend::kSz;
  InferencePipeline pipeline(PipelineMlp(), {1, 8}, cfg);
  const Tensor batch = SmoothBatch(64, 8, 5);
  const double tol = 0.05;
  const AllocationPlan plan = pipeline.Plan(tol);
  auto report = pipeline.Run(batch, tol);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->format, plan.format);
  EXPECT_DOUBLE_EQ(report->input_tolerance, plan.input_tolerance);
}

TEST(PipelineTest, QuantizationKicksInAtLooseTolerance) {
  PipelineConfig cfg;
  cfg.backend = compress::Backend::kSz;
  cfg.quant_fraction = 0.9;
  InferencePipeline pipeline(PipelineMlp(), {1, 8}, cfg);
  const AllocationPlan tight = pipeline.Plan(1e-5);
  EXPECT_EQ(tight.format, NumericFormat::kFP32);
  const AllocationPlan loose = pipeline.Plan(10.0);
  EXPECT_NE(loose.format, NumericFormat::kFP32);
}

TEST(PipelineTest, RejectsNonBatchInput) {
  PipelineConfig cfg;
  InferencePipeline pipeline(PipelineMlp(), {1, 8}, cfg);
  EXPECT_FALSE(pipeline.Run(Tensor({8}), 1e-2).ok());
}

TEST(PipelineTest, ReferenceNormReported) {
  PipelineConfig cfg;
  InferencePipeline pipeline(PipelineMlp(), {1, 8}, cfg);
  const Tensor batch = SmoothBatch(32, 8, 6);
  auto report = pipeline.Run(batch, 1e-2);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->reference_qoi_norm, 0.0);
}

TEST(PipelineTest, RelativeQoIErrorDividesByReferenceNorm) {
  PipelineReport report;
  report.achieved_qoi_error = 0.02;
  report.reference_qoi_norm = 4.0;
  EXPECT_DOUBLE_EQ(report.RelativeQoIError(), 0.005);

  report.reference_qoi_norm = 0.0;  // Unknown norm: no division by zero.
  EXPECT_EQ(report.RelativeQoIError(), 0.0);

  // A real run reports a consistent pair.
  PipelineConfig cfg;
  InferencePipeline pipeline(PipelineMlp(), {1, 8}, cfg);
  auto run = pipeline.Run(SmoothBatch(32, 8, 9), 1e-2);
  ASSERT_TRUE(run.ok());
  EXPECT_DOUBLE_EQ(run->RelativeQoIError(),
                   run->achieved_qoi_error / run->reference_qoi_norm);
}

TEST(PipelineTest, ExecuteQuantizedReusesVariantCache) {
  PipelineConfig cfg;
  InferencePipeline pipeline(PipelineMlp(), {1, 8}, cfg);
  const Tensor batch = SmoothBatch(16, 8, 12);

  EXPECT_EQ(pipeline.quantized_variant_count(), 0);
  auto first = pipeline.ExecuteQuantized(batch, NumericFormat::kFP16);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(pipeline.quantized_variant_count(), 1);
  auto second = pipeline.ExecuteQuantized(batch, NumericFormat::kFP16);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(pipeline.quantized_variant_count(), 1);  // Cache hit, no refill.
  for (int64_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i], (*second)[i]);
  }

  EXPECT_FALSE(pipeline.ExecuteQuantized(Tensor({8}), NumericFormat::kFP16)
                   .ok());
}

// Pins the quantized variants' outputs on the h2 surrogate's architecture
// (9 -> 50 -> 50 -> 9, Tanh). The digests were taken before the activation
// loops were split per kind and Tanh moved to a vector kernel; they hold on
// every kernel path of a glibc host.
TEST(PipelineTest, ExecuteQuantizedDigestsPinned) {
  nn::MlpConfig mlp;
  mlp.input_dim = 9;
  mlp.hidden_dims = {50, 50};
  mlp.output_dim = 9;
  mlp.activation = nn::ActivationKind::kTanh;
  mlp.seed = 7;
  InferencePipeline pipeline(nn::BuildMlp(mlp), {1, 9}, PipelineConfig());
  const Tensor batch = testing::RandomTensor({1024, 9}, 11, 2.0);
  const struct {
    NumericFormat format;
    uint64_t digest;
  } cases[] = {{NumericFormat::kFP32, 0xdab1d82b1685238dull},
               {NumericFormat::kFP16, 0xf04cd804eae95bbdull},
               {NumericFormat::kINT8, 0x8e584d598f2a4513ull}};
  testing::ForEachKernelPath([&] {
    for (const auto& c : cases) {
      auto out = pipeline.ExecuteQuantized(batch, c.format);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      EXPECT_EQ(testing::Digest(*out), c.digest)
          << quant::FormatToString(c.format) << std::hex << " 0x"
          << testing::Digest(*out);
    }
  });
}

// FNV-1a over the bit patterns of `values`.
uint64_t DigestDoubles(const std::vector<double>& values) {
  uint64_t h = 1469598103934665603ull;
  for (const double v : values) {
    const uint64_t bits = std::bit_cast<uint64_t>(v);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// Pins the convolution path on the eurosat ResNet's architecture (13 bands
// at 16x16, stages {8, 16, 32, 64} of two blocks, PSN, untrained weights):
// the PSN Predict, every conv's operator norm, the planned bounds and each
// quantized variant's outputs. The digests were taken while convolution
// still ran im2col + GEMM + a bias-add relayout; they hold on every kernel
// path. The model, pipeline and plans are rebuilt per path, so operator
// norms and bounds are computed there too.
TEST(PipelineTest, EuroSatResNetDigestsPinned) {
  testing::ForEachKernelPath([] {
    nn::ResNetConfig cfg;
    cfg.in_channels = 13;
    cfg.num_classes = 10;
    cfg.stage_channels = {8, 16, 32, 64};
    cfg.stage_blocks = {2, 2, 2, 2};
    cfg.use_psn = true;
    cfg.seed = 7;
    nn::Model model = nn::BuildResNet(cfg);
    const Tensor batch = testing::RandomTensor({32, 13, 16, 16}, 11);
    const Tensor predicted = model.Predict(batch);
    EXPECT_EQ(testing::Digest(predicted), 0x40108d44f56390a9ull)
        << "predict" << std::hex << " 0x" << testing::Digest(predicted);

    std::vector<double> norms;
    model.VisitLayers([&](const nn::Layer* layer) {
      if (const auto* c = dynamic_cast<const nn::Conv2dLayer*>(layer)) {
        norms.push_back(c->OperatorNorm(16 / c->stride(), 16 / c->stride()));
      }
    });
    EXPECT_EQ(DigestDoubles(norms), 0x587f9ed268962207ull)
        << "operator norms" << std::hex << " 0x" << DigestDoubles(norms);

    InferencePipeline pipeline(std::move(model), {1, 13, 16, 16},
                               PipelineConfig());
    std::vector<double> bounds;
    for (const double tol : {0.3, 3.0, 30.0}) {
      const AllocationPlan plan = pipeline.Plan(tol);
      bounds.push_back(plan.input_tolerance);
      bounds.push_back(plan.predicted_total_bound);
    }
    EXPECT_EQ(DigestDoubles(bounds), 0x1d27104ea87010a5ull)
        << "bounds" << std::hex << " 0x" << DigestDoubles(bounds);

    const struct {
      NumericFormat format;
      uint64_t digest;
    } cases[] = {{NumericFormat::kFP32, 0xde9a24fe0617341dull},
                 {NumericFormat::kFP16, 0x209babab99c5ff93ull},
                 {NumericFormat::kINT8, 0x6e717b07adcba8b1ull}};
    for (const auto& c : cases) {
      auto out = pipeline.ExecuteQuantized(batch, c.format);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      EXPECT_EQ(testing::Digest(*out), c.digest)
          << quant::FormatToString(c.format) << std::hex << " 0x"
          << testing::Digest(*out);
    }
  });
}

}  // namespace
}  // namespace core
}  // namespace errorflow
