// InferencePipeline::AutoTune: the Sec. IV-D search over (format,
// compression tolerance), measured with the pipeline's own compressor.
#include <cmath>

#include "core/pipeline.h"

#include "gtest/gtest.h"
#include "nn/builders.h"
#include "testing/test_util.h"

namespace errorflow {
namespace core {
namespace {

using quant::NumericFormat;
using tensor::Tensor;

InferencePipeline MakePipeline(PipelineConfig config = {}) {
  nn::MlpConfig cfg;
  cfg.input_dim = 8;
  cfg.hidden_dims = {16, 16};
  cfg.output_dim = 4;
  cfg.seed = 61;
  return InferencePipeline(nn::BuildMlp(cfg), {1, 8}, config);
}

Tensor SmoothBatch(uint64_t seed) {
  Tensor batch({512, 8});
  for (int64_t s = 0; s < batch.dim(0); ++s) {
    for (int64_t f = 0; f < 8; ++f) {
      batch.at(s, f) = static_cast<float>(
          0.8 * std::sin(0.01 * static_cast<double>(s) +
                         0.9 * static_cast<double>(f) +
                         static_cast<double>(seed)));
    }
  }
  return batch;
}

TEST(AutoTunerTest, ReturnsFeasibleBest) {
  InferencePipeline pipeline = MakePipeline();
  auto result = pipeline.AutoTune(/*qoi_tolerance=*/0.05, SmoothBatch(1));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->best.feasible);
  EXPECT_GT(result->best.total_throughput, 0.0);
  EXPECT_EQ(result->candidates.size(), 5u);  // fp32 + 4 reduced.
}

TEST(AutoTunerTest, BestIsArgmaxOfCandidates) {
  InferencePipeline pipeline = MakePipeline();
  auto result = pipeline.AutoTune(0.05, SmoothBatch(2));
  ASSERT_TRUE(result.ok());
  for (const AutoTuneCandidate& c : result->candidates) {
    if (c.feasible) {
      EXPECT_LE(c.total_throughput,
                result->best.total_throughput * (1 + 1e-12));
    }
  }
}

TEST(AutoTunerTest, TightToleranceExcludesCoarseFormats) {
  InferencePipeline pipeline = MakePipeline();
  // Below the tf32 bound: only fp32 admissible.
  const double tol = pipeline.analysis().QuantTerm(NumericFormat::kTF32) * 0.5;
  auto result = pipeline.AutoTune(tol, SmoothBatch(3));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->best.format, NumericFormat::kFP32);
  for (const AutoTuneCandidate& c : result->candidates) {
    if (c.format != NumericFormat::kFP32) {
      EXPECT_FALSE(c.feasible);
    }
  }
}

TEST(AutoTunerTest, ImpossibleToleranceFails) {
  InferencePipeline pipeline = MakePipeline();
  // Even fp32 needs compression slack; a zero tolerance is infeasible.
  auto result = pipeline.AutoTune(0.0, SmoothBatch(4));
  // fp32's quant term is 0, 0 >= 0 -> infeasible.
  EXPECT_FALSE(result.ok());
}

TEST(AutoTunerTest, ZfpL2Rejected) {
  PipelineConfig cfg;
  cfg.backend = compress::Backend::kZfp;
  cfg.norm = tensor::Norm::kL2;
  InferencePipeline pipeline = MakePipeline(cfg);
  auto result = pipeline.AutoTune(0.05, SmoothBatch(5));
  EXPECT_FALSE(result.ok());
}

TEST(AutoTunerTest, NeverWorseThanFixedFractionPlans) {
  // The tuner must match or beat the throughput implied by any fixed
  // quantization-fraction allocation, because it searches the same space
  // exhaustively over formats.
  InferencePipeline pipeline = MakePipeline();
  const Tensor batch = SmoothBatch(6);
  const double tol = 0.05;
  auto result = pipeline.AutoTune(tol, batch);
  ASSERT_TRUE(result.ok());
  for (double frac : {0.1, 0.5, 0.9}) {
    const AllocationPlan plan = AllocateTolerance(
        pipeline.analysis(), tol, pipeline.config().norm, frac);
    // Find the tuner's candidate for the same format: its throughput is
    // the best the fixed plan could achieve (the tuner's input tolerance
    // is >= the fixed plan's, since it gives compression all the slack).
    for (const AutoTuneCandidate& c : result->candidates) {
      if (c.format == plan.format && c.feasible) {
        EXPECT_GE(result->best.total_throughput,
                  c.total_throughput * (1 - 1e-12));
      }
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace errorflow
