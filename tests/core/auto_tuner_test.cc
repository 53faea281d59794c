#include "core/auto_tuner.h"

#include "core/allocator.h"

#include <cmath>

#include "gtest/gtest.h"
#include "nn/builders.h"
#include "testing/test_util.h"

namespace errorflow {
namespace core {
namespace {

using quant::NumericFormat;
using tensor::Tensor;

ErrorFlowAnalysis MakeAnalysis(nn::Model* out_model) {
  nn::MlpConfig cfg;
  cfg.input_dim = 8;
  cfg.hidden_dims = {16, 16};
  cfg.output_dim = 4;
  cfg.seed = 61;
  *out_model = nn::BuildMlp(cfg);
  return ErrorFlowAnalysis(ProfileModel(*out_model, {1, 8}));
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
  nn::Model model;
  ErrorFlowAnalysis analysis = MakeAnalysis(&model);
  AutoTuneConfig cfg;
  auto result = AutoTune(analysis, /*qoi_tolerance=*/0.05, SmoothBatch(1),
                         model.FlopsPerSample({1, 8}), 8 * 4, cfg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->best.feasible);
  EXPECT_GT(result->best.total_throughput, 0.0);
  EXPECT_EQ(result->candidates.size(), 5u);  // fp32 + 4 reduced.
}

TEST(AutoTunerTest, BestIsArgmaxOfCandidates) {
  nn::Model model;
  ErrorFlowAnalysis analysis = MakeAnalysis(&model);
  AutoTuneConfig cfg;
  auto result = AutoTune(analysis, 0.05, SmoothBatch(2),
                         model.FlopsPerSample({1, 8}), 8 * 4, cfg);
  ASSERT_TRUE(result.ok());
  for (const AutoTuneCandidate& c : result->candidates) {
    if (c.feasible) {
      EXPECT_LE(c.total_throughput,
                result->best.total_throughput * (1 + 1e-12));
    }
  }
}

TEST(AutoTunerTest, TightToleranceExcludesCoarseFormats) {
  nn::Model model;
  ErrorFlowAnalysis analysis = MakeAnalysis(&model);
  AutoTuneConfig cfg;
  // Below the tf32 bound: only fp32 admissible.
  const double tol = analysis.QuantTerm(NumericFormat::kTF32) * 0.5;
  auto result = AutoTune(analysis, tol, SmoothBatch(3),
                         model.FlopsPerSample({1, 8}), 8 * 4, cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->best.format, NumericFormat::kFP32);
  for (const AutoTuneCandidate& c : result->candidates) {
    if (c.format != NumericFormat::kFP32) {
      EXPECT_FALSE(c.feasible);
    }
  }
}

TEST(AutoTunerTest, ImpossibleToleranceFails) {
  nn::Model model;
  ErrorFlowAnalysis analysis = MakeAnalysis(&model);
  AutoTuneConfig cfg;
  // Even fp32 needs compression slack; a zero tolerance is infeasible.
  auto result = AutoTune(analysis, 0.0, SmoothBatch(4),
                         model.FlopsPerSample({1, 8}), 8 * 4, cfg);
  // fp32's quant term is 0, 0 >= 0 -> infeasible.
  EXPECT_FALSE(result.ok());
}

TEST(AutoTunerTest, ZfpL2Rejected) {
  nn::Model model;
  ErrorFlowAnalysis analysis = MakeAnalysis(&model);
  AutoTuneConfig cfg;
  cfg.backend = compress::Backend::kZfp;
  cfg.norm = tensor::Norm::kL2;
  auto result = AutoTune(analysis, 0.05, SmoothBatch(5),
                         model.FlopsPerSample({1, 8}), 8 * 4, cfg);
  EXPECT_FALSE(result.ok());
}

TEST(AutoTunerTest, NeverWorseThanFixedFractionPlans) {
  // The tuner must match or beat the throughput implied by any fixed
  // quantization-fraction allocation, because it searches the same space
  // exhaustively over formats.
  nn::Model model;
  ErrorFlowAnalysis analysis = MakeAnalysis(&model);
  AutoTuneConfig cfg;
  const Tensor batch = SmoothBatch(6);
  const double tol = 0.05;
  auto result = AutoTune(analysis, tol, batch,
                         model.FlopsPerSample({1, 8}), 8 * 4, cfg);
  ASSERT_TRUE(result.ok());
  for (double frac : {0.1, 0.5, 0.9}) {
    AllocationConfig alloc;
    alloc.norm = cfg.norm;
    alloc.quant_fraction = frac;
    const AllocationPlan plan = AllocateTolerance(analysis, tol, alloc);
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
