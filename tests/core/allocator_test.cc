#include "core/allocator.h"

#include "gtest/gtest.h"
#include "nn/builders.h"

namespace errorflow {
namespace core {
namespace {

using quant::NumericFormat;

ErrorFlowAnalysis MakeAnalysis() {
  nn::MlpConfig cfg;
  cfg.input_dim = 8;
  cfg.hidden_dims = {16, 16};
  cfg.output_dim = 4;
  cfg.seed = 11;
  nn::Model m = nn::BuildMlp(cfg);
  return ErrorFlowAnalysis(ProfileModel(m, {1, 8}));
}

TEST(AllocatorTest, TightToleranceKeepsFp32) {
  ErrorFlowAnalysis analysis = MakeAnalysis();
  AllocationConfig cfg;
  const double tiny = analysis.QuantTerm(NumericFormat::kTF32) * 1e-3;
  const AllocationPlan plan = AllocateTolerance(analysis, tiny, cfg);
  EXPECT_EQ(plan.format, NumericFormat::kFP32);
  EXPECT_EQ(plan.quant_bound, 0.0);
}

TEST(AllocatorTest, LooseTolerancePicksFastestFormat) {
  ErrorFlowAnalysis analysis = MakeAnalysis();
  AllocationConfig cfg;
  // Budget far above even INT8's bound: the fastest format (INT8 in the
  // default hardware profile) must win.
  const double huge = analysis.QuantTerm(NumericFormat::kINT8) * 100.0;
  const AllocationPlan plan = AllocateTolerance(analysis, huge, cfg);
  EXPECT_EQ(plan.format, NumericFormat::kINT8);
}

TEST(AllocatorTest, IntermediateTolerancePicksFp16) {
  ErrorFlowAnalysis analysis = MakeAnalysis();
  AllocationConfig cfg;
  cfg.quant_fraction = 1.0;
  // Between FP16's and INT8's quantization bounds.
  const double mid = (analysis.QuantTerm(NumericFormat::kFP16) +
                      analysis.QuantTerm(NumericFormat::kINT8)) /
                     2.0;
  const AllocationPlan plan = AllocateTolerance(analysis, mid, cfg);
  EXPECT_EQ(plan.format, NumericFormat::kFP16);
}

TEST(AllocatorTest, QuantFractionGatesFormatChoice) {
  ErrorFlowAnalysis analysis = MakeAnalysis();
  const double tol = analysis.QuantTerm(NumericFormat::kFP16) * 2.0;
  AllocationConfig lo;
  lo.quant_fraction = 0.1;  // Budget = 0.2 * fp16 bound: doesn't fit.
  AllocationConfig hi;
  hi.quant_fraction = 0.9;  // Budget = 1.8 * fp16 bound: fits.
  EXPECT_EQ(AllocateTolerance(analysis, tol, lo).format,
            NumericFormat::kFP32);
  EXPECT_EQ(AllocateTolerance(analysis, tol, hi).format,
            NumericFormat::kFP16);
}

TEST(AllocatorTest, UnusedToleranceGoesToCompression) {
  ErrorFlowAnalysis analysis = MakeAnalysis();
  AllocationConfig cfg;
  cfg.quant_fraction = 0.5;
  const double tol = analysis.QuantTerm(NumericFormat::kFP16) * 4.0;
  const AllocationPlan plan = AllocateTolerance(analysis, tol, cfg);
  EXPECT_GT(plan.input_tolerance, 0.0);
  // Total predicted bound uses the whole budget (affine bound inverted).
  EXPECT_NEAR(plan.predicted_total_bound, tol, tol * 1e-6);
}

TEST(AllocatorTest, DisallowQuantization) {
  ErrorFlowAnalysis analysis = MakeAnalysis();
  AllocationConfig cfg;
  cfg.quant_fraction = 0.0;  // No budget for quantization.
  const double tol = analysis.QuantTerm(NumericFormat::kINT8) * 100.0;
  const AllocationPlan plan = AllocateTolerance(analysis, tol, cfg);
  EXPECT_EQ(plan.format, NumericFormat::kFP32);
  EXPECT_EQ(plan.quant_bound, 0.0);
  EXPECT_GT(plan.input_tolerance, 0.0);
  // The whole tolerance goes to compression.
  EXPECT_EQ(plan.input_tolerance,
            analysis.MaxInputError(tol, cfg.norm, NumericFormat::kFP32));
}

TEST(AllocatorTest, PlanNeverExceedsTolerance) {
  ErrorFlowAnalysis analysis = MakeAnalysis();
  for (double tol : {1e-4, 1e-3, 1e-2, 1e-1, 1.0}) {
    for (double frac : {0.1, 0.5, 0.9}) {
      AllocationConfig cfg;
      cfg.quant_fraction = frac;
      const AllocationPlan plan = AllocateTolerance(analysis, tol, cfg);
      EXPECT_LE(plan.predicted_total_bound, tol * (1 + 1e-9))
          << "tol " << tol << " frac " << frac;
      EXPECT_LE(plan.quant_bound, tol * frac * (1 + 1e-9));
    }
  }
}

TEST(AllocatorTest, LinfAndL2NormsBothSupported) {
  ErrorFlowAnalysis analysis = MakeAnalysis();
  for (tensor::Norm norm : {tensor::Norm::kL2, tensor::Norm::kLinf}) {
    AllocationConfig cfg;
    cfg.norm = norm;
    const AllocationPlan plan = AllocateTolerance(analysis, 0.05, cfg);
    EXPECT_GE(plan.input_tolerance, 0.0);
  }
}

}  // namespace
}  // namespace core
}  // namespace errorflow
