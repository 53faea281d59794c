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
  const double tiny = analysis.QuantTerm(NumericFormat::kTF32) * 1e-3;
  const AllocationPlan plan =
      AllocateTolerance(analysis, tiny, tensor::Norm::kLinf, 0.5);
  EXPECT_EQ(plan.format, NumericFormat::kFP32);
  EXPECT_EQ(plan.quant_bound, 0.0);
}

TEST(AllocatorTest, LooseTolerancePicksFastestFormat) {
  ErrorFlowAnalysis analysis = MakeAnalysis();
  // Budget far above even INT8's bound: the fastest format (INT8 on the
  // modeled GPU) must win.
  const double huge = analysis.QuantTerm(NumericFormat::kINT8) * 100.0;
  const AllocationPlan plan =
      AllocateTolerance(analysis, huge, tensor::Norm::kLinf, 0.5);
  EXPECT_EQ(plan.format, NumericFormat::kINT8);
}

TEST(AllocatorTest, IntermediateTolerancePicksFp16) {
  ErrorFlowAnalysis analysis = MakeAnalysis();
  // Between FP16's and INT8's quantization bounds.
  const double mid = (analysis.QuantTerm(NumericFormat::kFP16) +
                      analysis.QuantTerm(NumericFormat::kINT8)) /
                     2.0;
  const AllocationPlan plan =
      AllocateTolerance(analysis, mid, tensor::Norm::kLinf, 1.0);
  EXPECT_EQ(plan.format, NumericFormat::kFP16);
}

TEST(AllocatorTest, QuantFractionGatesFormatChoice) {
  ErrorFlowAnalysis analysis = MakeAnalysis();
  const double tol = analysis.QuantTerm(NumericFormat::kFP16) * 2.0;
  // Budget = 0.2 * fp16 bound: doesn't fit.
  EXPECT_EQ(AllocateTolerance(analysis, tol, tensor::Norm::kLinf, 0.1).format,
            NumericFormat::kFP32);
  // Budget = 1.8 * fp16 bound: fits.
  EXPECT_EQ(AllocateTolerance(analysis, tol, tensor::Norm::kLinf, 0.9).format,
            NumericFormat::kFP16);
}

TEST(AllocatorTest, UnusedToleranceGoesToCompression) {
  ErrorFlowAnalysis analysis = MakeAnalysis();
  const double tol = analysis.QuantTerm(NumericFormat::kFP16) * 4.0;
  const AllocationPlan plan =
      AllocateTolerance(analysis, tol, tensor::Norm::kLinf, 0.5);
  EXPECT_GT(plan.input_tolerance, 0.0);
  // Total predicted bound uses the whole budget (affine bound inverted).
  EXPECT_NEAR(plan.predicted_total_bound, tol, tol * 1e-6);
}

TEST(AllocatorTest, DisallowQuantization) {
  ErrorFlowAnalysis analysis = MakeAnalysis();
  const double tol = analysis.QuantTerm(NumericFormat::kINT8) * 100.0;
  // No budget for quantization.
  const AllocationPlan plan =
      AllocateTolerance(analysis, tol, tensor::Norm::kLinf, 0.0);
  EXPECT_EQ(plan.format, NumericFormat::kFP32);
  EXPECT_EQ(plan.quant_bound, 0.0);
  EXPECT_GT(plan.input_tolerance, 0.0);
  // The whole tolerance goes to compression.
  EXPECT_EQ(plan.input_tolerance,
            analysis.MaxInputError(tol, tensor::Norm::kLinf,
                                   NumericFormat::kFP32));
}

TEST(AllocatorTest, PlanNeverExceedsTolerance) {
  ErrorFlowAnalysis analysis = MakeAnalysis();
  for (double tol : {1e-4, 1e-3, 1e-2, 1e-1, 1.0}) {
    for (double frac : {0.1, 0.5, 0.9}) {
      const AllocationPlan plan =
          AllocateTolerance(analysis, tol, tensor::Norm::kLinf, frac);
      EXPECT_LE(plan.predicted_total_bound, tol * (1 + 1e-9))
          << "tol " << tol << " frac " << frac;
      EXPECT_LE(plan.quant_bound, tol * frac * (1 + 1e-9));
    }
  }
}

TEST(AllocatorTest, LinfAndL2NormsBothSupported) {
  ErrorFlowAnalysis analysis = MakeAnalysis();
  for (tensor::Norm norm : {tensor::Norm::kL2, tensor::Norm::kLinf}) {
    const AllocationPlan plan = AllocateTolerance(analysis, 0.05, norm, 0.5);
    EXPECT_GE(plan.input_tolerance, 0.0);
  }
}

}  // namespace
}  // namespace core
}  // namespace errorflow
