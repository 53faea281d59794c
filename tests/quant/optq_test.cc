// Data-driven INT8 weight quantization (quant/optq.h, applied through
// quant::Materialize): the OPTQ-style error-feedback rounder must (a) be
// deterministic so the serving registry can price a variant at Register
// and materialize it bit-identically later, (b) achieve measurably lower calibration-distribution error than
// Table-I max-affine INT8, and (c) produce effective steps whose
// BoundWithSteps covers the achieved error and whose attribution sums
// exactly — the invariants the admission controller and the watchdog
// audit rely on.
#include <cmath>
#include <limits>

#include "core/error_bound.h"
#include "gtest/gtest.h"
#include "nn/builders.h"
#include "nn/dense.h"
#include "quant/optq.h"
#include "quant/quantize_model.h"
#include "tensor/tensor.h"
#include "util/random.h"

namespace errorflow {
namespace quant {
namespace {

using tensor::Norm;
using tensor::Tensor;

nn::Model CalibMlp(uint64_t seed = 11) {
  nn::MlpConfig cfg;
  cfg.input_dim = 12;
  cfg.hidden_dims = {24, 20};
  cfg.output_dim = 6;
  cfg.seed = seed;
  return nn::BuildMlp(cfg);
}

Tensor UniformBatch(int64_t n, int64_t d, uint64_t seed) {
  Tensor t({n, d});
  util::Rng rng(seed);
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  return t;
}

// Max per-sample error between two model outputs (the watchdog measure).
double MaxSampleError(const Tensor& ref, const Tensor& got, Norm norm) {
  EXPECT_EQ(ref.size(), got.size());
  const int64_t n = ref.dim(0);
  const int64_t per = ref.size() / n;
  double worst = 0.0;
  for (int64_t s = 0; s < n; ++s) {
    double acc = 0.0;
    for (int64_t i = 0; i < per; ++i) {
      const double d = static_cast<double>(ref[s * per + i]) -
                       static_cast<double>(got[s * per + i]);
      if (norm == Norm::kL2) {
        acc += d * d;
      } else {
        acc = std::max(acc, std::fabs(d));
      }
    }
    worst = std::max(worst, norm == Norm::kL2 ? std::sqrt(acc) : acc);
  }
  return worst;
}

// The data-driven INT8 variant of `model`.
MaterializedModel Optq(const nn::Model& model, const Tensor& calibration,
                       WeightQuantizer quantizer = WeightQuantizer::kOptq) {
  return Materialize(model, {NumericFormat::kINT8, quantizer}, calibration);
}

double MeanSquaredOutputError(nn::Model* a, nn::Model* b,
                              const Tensor& input) {
  Tensor oa, ob;
  a->Forward(input, &oa, false);
  b->Forward(input, &ob, false);
  EXPECT_EQ(oa.size(), ob.size());
  double acc = 0.0;
  for (int64_t i = 0; i < oa.size(); ++i) {
    const double d = static_cast<double>(oa[i]) - static_cast<double>(ob[i]);
    acc += d * d;
  }
  return acc / static_cast<double>(oa.size());
}

TEST(OptqTest, RecordsMatchTraversalOrderAndAreSane) {
  nn::Model model = CalibMlp();
  const Tensor calib = UniformBatch(64, 12, 77);
  MaterializedModel q = Optq(model, calib);

  core::ErrorFlowAnalysis analysis(core::ProfileModel(model, {1, 12}));
  ASSERT_EQ(static_cast<int64_t>(q.layers.size()),
            analysis.LinearLayerCount());
  for (const LayerQuantRecord& rec : q.layers) {
    EXPECT_GT(rec.rows, 0);
    EXPECT_GT(rec.cols, 0);
    EXPECT_GT(rec.calib_columns, 0) << rec.layer;
    EXPECT_GT(rec.effective_step, 0.0) << rec.layer;
    EXPECT_GT(rec.table_step, 0.0) << rec.layer;
    EXPECT_GT(rec.calib_rms_error, 0.0) << rec.layer;
    EXPECT_LT(rec.max_abs_delta, 1.0) << rec.layer;
  }
}

TEST(OptqTest, DeterministicMaterialization) {
  nn::Model model = CalibMlp();
  const Tensor calib = UniformBatch(48, 12, 5);
  for (WeightQuantizer wq : {WeightQuantizer::kOptq, WeightQuantizer::kSpfq}) {
    MaterializedModel a = Optq(model, calib, wq);
    MaterializedModel b = Optq(model, calib, wq);
    bool identical = true;
    Tensor oa, ob;
    const Tensor probe = UniformBatch(16, 12, 99);
    a.model.Forward(probe, &oa, false);
    b.model.Forward(probe, &ob, false);
    ASSERT_EQ(oa.size(), ob.size());
    for (int64_t i = 0; i < oa.size(); ++i) {
      identical = identical && oa[i] == ob[i];
    }
    EXPECT_TRUE(identical) << QuantizerToString(wq);
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (size_t l = 0; l < a.layers.size(); ++l) {
      EXPECT_DOUBLE_EQ(a.layers[l].effective_step,
                       b.layers[l].effective_step);
    }
  }
}

TEST(OptqTest, BeatsMaxAffineOnCalibrationDistribution) {
  nn::Model model = CalibMlp(23);
  const Tensor calib = UniformBatch(96, 12, 31);
  const Tensor heldout = UniformBatch(64, 12, 131);

  MaterializedModel optq = Optq(model, calib);
  MaterializedModel affine = Materialize(model, {NumericFormat::kINT8});
  nn::Model reference = model.Clone();
  reference.FoldPsn();

  const double optq_err =
      MeanSquaredOutputError(&reference, &optq.model, heldout);
  const double affine_err =
      MeanSquaredOutputError(&reference, &affine.model, heldout);
  EXPECT_GT(affine_err, 0.0);
  // The acceptance claim: the error-feedback rounder measurably tightens
  // the achieved error on the calibration distribution.
  EXPECT_LT(optq_err, affine_err);
}

TEST(OptqTest, EffectiveStepsTightenTheInt8Bound) {
  nn::Model model = CalibMlp(41);
  const Tensor calib = UniformBatch(96, 12, 7);
  MaterializedModel q = Optq(model, calib);

  core::ErrorFlowAnalysis analysis(core::ProfileModel(model, {1, 12}));
  const double data_bound =
      analysis.Bound(0.0, Norm::kLinf, q.EffectiveSteps());
  const double table_bound =
      analysis.Bound(0.0, Norm::kLinf, NumericFormat::kINT8);
  EXPECT_GT(data_bound, 0.0);
  // The effective steps come from measured perturbations, which the greedy
  // rounder keeps below the worst-case Table-I grid noise.
  EXPECT_LT(data_bound, table_bound);
}

TEST(OptqTest, BoundWithStepsCoversAchievedError) {
  nn::Model model = CalibMlp(3);
  const Tensor calib = UniformBatch(96, 12, 17);
  MaterializedModel q = Optq(model, calib);
  nn::Model reference = model.Clone();
  reference.FoldPsn();

  core::ErrorFlowAnalysis analysis(core::ProfileModel(model, {1, 12}));
  const std::vector<double> steps = q.EffectiveSteps();

  for (Norm norm : {Norm::kLinf, Norm::kL2}) {
    const double bound = analysis.Bound(0.0, norm, steps);
    Tensor ref_out, q_out;
    const Tensor probe = UniformBatch(64, 12, 211);
    reference.Forward(probe, &ref_out, false);
    q.model.Forward(probe, &q_out, false);
    const double achieved = MaxSampleError(ref_out, q_out, norm);
    EXPECT_GE(bound, achieved) << "norm " << static_cast<int>(norm);
  }
}

TEST(OptqTest, AttributionWithStepsSumsExactly) {
  nn::Model model = CalibMlp(9);
  const Tensor calib = UniformBatch(64, 12, 13);
  MaterializedModel q = Optq(model, calib);

  core::ErrorFlowAnalysis analysis(core::ProfileModel(model, {1, 12}));
  const core::BoundAttribution att =
      analysis.Attribution(1e-3, Norm::kL2, q.EffectiveSteps());
  const double bound = analysis.Bound(1e-3, Norm::kL2, q.EffectiveSteps());
  EXPECT_NEAR(att.total, bound, 1e-9 * std::max(1.0, bound));
  double share_sum = 0.0;
  for (const core::LayerAttribution& row : att.layers) {
    share_sum += row.quant_share;
  }
  EXPECT_NEAR(att.quant_term, share_sum,
              1e-9 * std::max(1.0, att.quant_term));
}

TEST(OptqTest, SpfqDiffersFromOptqButStaysOnGrid) {
  nn::Model model = CalibMlp(29);
  const Tensor calib = UniformBatch(64, 12, 3);
  MaterializedModel a = Optq(model, calib, WeightQuantizer::kOptq);
  MaterializedModel b = Optq(model, calib, WeightQuantizer::kSpfq);
  const Tensor probe = UniformBatch(16, 12, 47);
  Tensor oa, ob;
  a.model.Forward(probe, &oa, false);
  b.model.Forward(probe, &ob, false);
  bool any_diff = false;
  for (int64_t i = 0; i < oa.size(); ++i) any_diff |= oa[i] != ob[i];
  EXPECT_TRUE(any_diff);
  for (const LayerQuantRecord& rec : b.layers) {
    EXPECT_GT(rec.effective_step, 0.0);
  }
}

TEST(OptqTest, EmptyCalibrationFallsBackToPerChannelRounding) {
  nn::Model model = CalibMlp(7);
  MaterializedModel q = Optq(model, Tensor{});
  for (const LayerQuantRecord& rec : q.layers) {
    EXPECT_EQ(rec.calib_columns, 0);
    EXPECT_GT(rec.effective_step, 0.0);
    EXPECT_DOUBLE_EQ(rec.calib_rms_error, 0.0);
  }
  // Still a working model on the INT8 grid.
  Tensor out;
  q.model.Forward(UniformBatch(4, 12, 1), &out, false);
  for (int64_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(std::isfinite(out[i]));
  }
}

TEST(OptqTest, ConvAndResidualModelsQuantize) {
  nn::ResNetConfig cfg;
  cfg.in_channels = 2;
  cfg.num_classes = 4;
  cfg.stage_channels = {6, 8};
  cfg.stage_blocks = {1, 1};
  cfg.seed = 19;
  nn::Model model = nn::BuildResNet(cfg);

  Tensor calib({8, 2, 12, 12});
  util::Rng rng(55);
  for (int64_t i = 0; i < calib.size(); ++i) {
    calib[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  MaterializedModel q = Optq(model, calib);

  core::ErrorFlowAnalysis analysis(
      core::ProfileModel(model, {1, 2, 12, 12}));
  ASSERT_EQ(static_cast<int64_t>(q.layers.size()),
            analysis.LinearLayerCount());
  for (const LayerQuantRecord& rec : q.layers) {
    EXPECT_GT(rec.calib_columns, 0) << rec.layer;
    EXPECT_GT(rec.effective_step, 0.0) << rec.layer;
  }
  // The data-driven steps plug into the composed bound machinery.
  const double bound = analysis.Bound(0.0, Norm::kLinf, q.EffectiveSteps());
  EXPECT_GT(bound, 0.0);
  EXPECT_LT(bound, analysis.Bound(0.0, Norm::kLinf, NumericFormat::kINT8));
}

TEST(OptqTest, NonFiniteWeightsFollowAffineNanPolicy) {
  // Mirror of the affine-path policy (affine.cc): NaN quantizes to the
  // clamped zero point, ±Inf to a grid endpoint, and neither enters the
  // error feedback — without this, one NaN weight rides the residual
  // update into every remaining column of the row and the layer's
  // effective step (hence the priced data-driven bound) becomes NaN,
  // silently disabling the variant at admission.
  nn::Model model = CalibMlp(61);
  bool poisoned = false;
  model.VisitLayers([&](nn::Layer* layer) {
    if (poisoned) return;
    if (auto* dl = dynamic_cast<nn::DenseLayer*>(layer)) {
      Tensor& w = dl->mutable_weight();
      ASSERT_GE(w.size(), 3);
      w[0] = std::numeric_limits<float>::quiet_NaN();
      w[1] = std::numeric_limits<float>::infinity();
      w[2] = -std::numeric_limits<float>::infinity();
      poisoned = true;
    }
  });
  ASSERT_TRUE(poisoned);
  const Tensor calib = UniformBatch(64, 12, 77);

  for (WeightQuantizer wq :
       {WeightQuantizer::kOptq, WeightQuantizer::kSpfq}) {
    MaterializedModel q = Optq(model, calib, wq);
    q.model.VisitLayers([&](nn::Layer* layer) {
      if (auto* dl = dynamic_cast<nn::DenseLayer*>(layer)) {
        const Tensor& w = dl->mutable_weight();
        for (int64_t i = 0; i < w.size(); ++i) {
          EXPECT_TRUE(std::isfinite(w[i])) << QuantizerToString(wq);
        }
      }
    });
    for (const LayerQuantRecord& rec : q.layers) {
      EXPECT_TRUE(std::isfinite(rec.effective_step)) << rec.layer;
      EXPECT_GT(rec.effective_step, 0.0) << rec.layer;
      EXPECT_TRUE(std::isfinite(rec.rms_delta)) << rec.layer;
      EXPECT_TRUE(std::isfinite(rec.max_abs_delta)) << rec.layer;
      EXPECT_TRUE(std::isfinite(rec.calib_rms_error)) << rec.layer;
    }
    // Still deterministic under poisoned weights: the admission-priced
    // steps and any later rematerialization must keep agreeing.
    MaterializedModel again = Optq(model, calib, wq);
    ASSERT_EQ(q.layers.size(), again.layers.size());
    for (size_t l = 0; l < q.layers.size(); ++l) {
      EXPECT_DOUBLE_EQ(q.layers[l].effective_step,
                       again.layers[l].effective_step);
    }
  }
}

}  // namespace
}  // namespace quant
}  // namespace errorflow
