#include "serve/admission.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "core/spectral_profile.h"
#include "gtest/gtest.h"
#include "nn/builders.h"
#include "quant/format.h"
#include "quant/hardware_model.h"

namespace errorflow {
namespace serve {
namespace {

using quant::NumericFormat;

class AdmissionTest : public ::testing::Test {
 protected:
  AdmissionTest()
      : analysis_(core::ProfileModel(BuildModel(), {1, 6})),
        now_(Clock::now()),
        later_(now_ + std::chrono::seconds(1)) {}

  static nn::Model BuildModel() {
    nn::MlpConfig cfg;
    cfg.name = "m";
    cfg.input_dim = 6;
    cfg.hidden_dims = {8};
    cfg.output_dim = 4;
    cfg.seed = 7;
    return nn::BuildMlp(cfg);
  }

  /// The tightest achievable quant bound among the reduced formats.
  double TightestReducedBound(tensor::Norm norm) const {
    double tightest = std::numeric_limits<double>::infinity();
    for (NumericFormat f : quant::ReducedFormats()) {
      tightest = std::min(tightest, analysis_.Bound(0.0, norm, f));
    }
    return tightest;
  }

  core::ErrorFlowAnalysis analysis_;
  Clock::time_point now_;
  Clock::time_point later_;
};

TEST_F(AdmissionTest, ZeroToleranceIsInvalidArgument) {
  AdmissionController controller(ServerConfig{});
  auto decision =
      controller.Admit(analysis_, 0.0, later_, now_, 0);
  EXPECT_EQ(decision.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(AdmissionTest, NegativeToleranceIsInvalidArgument) {
  AdmissionController controller(ServerConfig{});
  auto decision =
      controller.Admit(analysis_, -1e-3, later_, now_, 0);
  EXPECT_EQ(decision.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(AdmissionTest, ExpiredDeadlineIsDeadlineExceeded) {
  AdmissionController controller(ServerConfig{});
  auto decision = controller.Admit(
      analysis_, 1e-2, now_ - std::chrono::milliseconds(1), now_,
      0);
  EXPECT_EQ(decision.status().code(), StatusCode::kDeadlineExceeded);
  // A deadline exactly at `now` is also already dead.
  decision = controller.Admit(analysis_, 1e-2, now_, now_, 0);
  EXPECT_EQ(decision.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(AdmissionTest, FullQueueIsResourceExhausted) {
  ServerConfig cfg;
  cfg.max_queue_depth = 4;
  AdmissionController controller(cfg);
  auto decision = controller.Admit(analysis_, 1e-2, later_, now_, 4);
  EXPECT_EQ(decision.status().code(), StatusCode::kResourceExhausted);
  // One below the bound still admits.
  EXPECT_TRUE(controller.Admit(analysis_, 1e-2, later_, now_, 3)
                  .ok());
}

TEST_F(AdmissionTest, OverloadHalvesTheQueueBound) {
  ServerConfig cfg;
  cfg.max_queue_depth = 8;
  AdmissionController controller(cfg);
  // Depth 4 admits normally but is shed while the scheduler reports SLO
  // overload (effective bound 8/2 = 4).
  EXPECT_TRUE(controller.Admit(analysis_, 1e-2, later_, now_, 4)
                  .ok());
  auto overloaded = controller.Admit(analysis_, 1e-2, later_,
                                     now_, 4, /*overloaded=*/true);
  EXPECT_EQ(overloaded.status().code(), StatusCode::kResourceExhausted);
  // Below the halved bound still admits under overload.
  EXPECT_TRUE(controller
                  .Admit(analysis_, 1e-2, later_, now_, 3,
                         /*overloaded=*/true)
                  .ok());
}

TEST_F(AdmissionTest, ToleranceBelowTightestBoundIsFailedPrecondition) {
  ServerConfig cfg;
  cfg.allowed_formats = quant::ReducedFormats();  // Exclude lossless FP32.
  AdmissionController controller(cfg);
  const double tightest = TightestReducedBound(cfg.norm);
  ASSERT_GT(tightest, 0.0);
  auto decision = controller.Admit(analysis_, tightest * 0.5,
                                   later_, now_, 0);
  EXPECT_EQ(decision.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(AdmissionTest, Fp32MakesAnyPositiveToleranceFeasible) {
  AdmissionController controller(ServerConfig{});  // All formats allowed.
  const double tiny = TightestReducedBound(tensor::Norm::kLinf) * 1e-6;
  auto decision = controller.Admit(analysis_, tiny, later_, now_, 0);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->format, NumericFormat::kFP32);
  EXPECT_EQ(decision->quant_bound, 0.0);
}

TEST_F(AdmissionTest, AdmitsFeasibleFormatWithinTolerance) {
  ServerConfig cfg;
  cfg.allowed_formats = quant::ReducedFormats();
  AdmissionController controller(cfg);
  const double tol = TightestReducedBound(cfg.norm) * 4.0;
  auto decision = controller.Admit(analysis_, tol, later_, now_, 0);
  ASSERT_TRUE(decision.ok());
  EXPECT_NE(decision->format, NumericFormat::kFP32);
  EXPECT_LE(decision->quant_bound, tol);
  EXPECT_DOUBLE_EQ(decision->slack, tol - decision->quant_bound);
}

TEST_F(AdmissionTest, LooseToleranceSelectsFasterFormatThanTight) {
  ServerConfig cfg;
  AdmissionController controller(cfg);
  quant::ExecutionModel exec(100, 100);

  const double tight = TightestReducedBound(cfg.norm) * 1.5;
  const double loose = 1e9;
  auto tight_decision =
      controller.Admit(analysis_, tight, later_, now_, 0);
  auto loose_decision =
      controller.Admit(analysis_, loose, later_, now_, 0);
  ASSERT_TRUE(tight_decision.ok());
  ASSERT_TRUE(loose_decision.ok());
  EXPECT_LE(exec.SecondsPerSample(loose_decision->format),
            exec.SecondsPerSample(tight_decision->format));
}

TEST_F(AdmissionTest, RejectionsIncrementTypedCounters) {
  AdmissionController controller(ServerConfig{});
  auto& registry = obs::MetricsRegistry::Global();
  const uint64_t invalid_before =
      registry.GetCounter("errorflow.serve.admission.rejected_invalid")
          ->value();
  const uint64_t admitted_before =
      registry.GetCounter("errorflow.serve.admission.admitted")->value();
  (void)controller.Admit(analysis_, 0.0, later_, now_, 0);
  (void)controller.Admit(analysis_, 1e-2, later_, now_, 0);
  EXPECT_EQ(
      registry.GetCounter("errorflow.serve.admission.rejected_invalid")
          ->value(),
      invalid_before + 1);
  EXPECT_EQ(registry.GetCounter("errorflow.serve.admission.admitted")->value(),
            admitted_before + 1);
}

}  // namespace
}  // namespace serve
}  // namespace errorflow
