// Parity pins for the single pricing / picking / materializing path:
//  - the analysis prices each format once, and every cached QuantTerm,
//    Gain and Bound equals a from-scratch flow over steps recomputed from
//    the weights;
//  - AllocateTolerance and Admit (data-driven candidate included) equal a
//    brute-force "lowest modeled time among feasible candidates, earlier
//    on ties" over a tolerance grid;
//  - Materialize is bit-identical to a plain per-layer rounding loop.
// Fixtures are fixed-seed MLP, conv and residual models.
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/allocator.h"
#include "core/spectral_profile.h"
#include "gtest/gtest.h"
#include "nn/builders.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pool.h"
#include "quant/affine.h"
#include "quant/hardware_model.h"
#include "quant/quantize_model.h"
#include "quant/step_size.h"
#include "serve/admission.h"
#include "serve/model_registry.h"

namespace errorflow {
namespace serve {
namespace {

using core::ErrorFlowAnalysis;
using quant::NumericFormat;
using quant::WeightQuantizer;
using tensor::Norm;
using tensor::Tensor;

struct Fixture {
  std::string name;
  nn::Model (*build)();
  tensor::Shape shape;
};

nn::Model Mlp() {
  nn::MlpConfig cfg;
  cfg.name = "mlp";
  cfg.input_dim = 8;
  cfg.hidden_dims = {16, 16};
  cfg.output_dim = 4;
  cfg.seed = 11;
  return nn::BuildMlp(cfg);
}

nn::Model ConvNet() {
  nn::Model model("conv");
  auto c1 = std::make_unique<nn::Conv2dLayer>(2, 4, 3, /*stride=*/1,
                                              /*padding=*/1);
  c1->InitHe(21);
  model.Add(std::move(c1));
  auto c2 = std::make_unique<nn::Conv2dLayer>(4, 6, 3, /*stride=*/2,
                                              /*padding=*/1);
  c2->InitHe(22);
  model.Add(std::move(c2));
  model.Add(std::make_unique<nn::GlobalAvgPoolLayer>());
  auto head = std::make_unique<nn::DenseLayer>(6, 3);
  head->InitXavier(23);
  model.Add(std::move(head));
  return model;
}

nn::Model ResNet() {
  nn::ResNetConfig cfg;
  cfg.name = "resnet";
  cfg.in_channels = 2;
  cfg.num_classes = 3;
  cfg.stage_channels = {4, 8};
  cfg.stage_blocks = {1, 1};
  cfg.seed = 52;
  return nn::BuildResNet(cfg);
}

const std::vector<Fixture>& Fixtures() {
  static const std::vector<Fixture> kFixtures = {
      {"mlp", &Mlp, {1, 8}},
      {"conv", &ConvNet, {1, 2, 8, 8}},
      {"resnet", &ResNet, {1, 2, 8, 8}}};
  return kFixtures;
}

// Recomputes the Table-I steps from the weights: the pre-cache pricing
// path.
std::vector<double> ScratchSteps(const ErrorFlowAnalysis& analysis,
                                 NumericFormat format) {
  std::vector<double> steps;
  for (const core::LayerProfile* layer : analysis.LinearLayers()) {
    steps.push_back(format == NumericFormat::kFP32
                        ? 0.0
                        : quant::AverageStepSize(layer->weight, format));
  }
  return steps;
}

TEST(PricingParityTest, CachedFormatPricingEqualsScratchFlow) {
  for (const Fixture& fx : Fixtures()) {
    const ErrorFlowAnalysis analysis(core::ProfileModel(fx.build(), fx.shape));
    for (NumericFormat f : quant::AllFormats()) {
      SCOPED_TRACE(fx.name + "/" + quant::FormatToString(f));
      const std::vector<double> scratch_steps = ScratchSteps(analysis, f);
      EXPECT_EQ(analysis.QuantTerm(f), analysis.QuantTerm(scratch_steps));
      EXPECT_EQ(analysis.Gain(f),
                analysis.Attribution(0.0, Norm::kL2, scratch_steps).gain);
      for (Norm norm : {Norm::kLinf, Norm::kL2}) {
        for (double err : {0.0, 1e-3, 0.25}) {
          EXPECT_EQ(analysis.Bound(err, norm, f),
                    analysis.Bound(err, norm, scratch_steps));
          EXPECT_EQ(analysis.Attribution(err, norm, f).total,
                    analysis.Attribution(err, norm, scratch_steps).total);
        }
      }
      const std::vector<double>& steps = analysis.Steps(f);
      ASSERT_EQ(static_cast<int64_t>(steps.size()),
                analysis.LinearLayerCount());
      const auto rows = analysis.Attribution(0.0, Norm::kL2, scratch_steps);
      for (size_t i = 0; i < steps.size(); ++i) {
        EXPECT_EQ(steps[i], rows.layers[i].step_size) << i;
      }
    }
  }
}

// Lowest modeled time among feasible candidates; the earlier candidate
// wins a tie. Returns -1 when none is feasible.
int BruteForcePick(const std::vector<NumericFormat>& formats,
                   const std::vector<double>& bounds, double budget,
                   const quant::ExecutionModel& exec) {
  int best = -1;
  for (size_t i = 0; i < formats.size(); ++i) {
    if (!(bounds[i] <= budget)) continue;
    if (best < 0 || exec.SecondsPerSample(formats[i]) <
                        exec.SecondsPerSample(formats[best])) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

// Twelve log-spaced tolerances from below the tightest reduced-format
// bound to well above the loosest one.
std::vector<double> ToleranceGrid(const ErrorFlowAnalysis& analysis) {
  const double lo = 0.3 * analysis.QuantTerm(NumericFormat::kTF32);
  const double hi = 30.0 * analysis.QuantTerm(NumericFormat::kINT8);
  std::vector<double> grid;
  for (int k = 0; k < 12; ++k) {
    grid.push_back(lo * std::pow(hi / lo, k / 11.0));
  }
  return grid;
}

// Index of PickFastest's choice in `candidates`, -1 for none.
int PickIndex(const std::vector<core::PricedVariant>& candidates,
              double budget) {
  const core::PricedVariant* picked = core::PickFastest(candidates, budget);
  return picked == nullptr ? -1 : static_cast<int>(picked - candidates.data());
}

// The planners and PickFastest, their one selection rule, against the
// brute force over the same candidates. The earlier-candidate-wins rule on
// a speed tie is pinned by PtqServeTest.SpeedTiePrefersMaxAffineInt8.
TEST(PickParityTest, AllocateToleranceMatchesBruteForce) {
  for (const Fixture& fx : Fixtures()) {
    nn::Model model = fx.build();
    const ErrorFlowAnalysis analysis(core::ProfileModel(model, fx.shape));
    const std::vector<NumericFormat>& formats = quant::ReducedFormats();
    const std::vector<core::PricedVariant> candidates =
        analysis.Price(formats);
    std::vector<double> bounds;
    for (NumericFormat f : formats) {
      bounds.push_back(analysis.QuantTerm(ScratchSteps(analysis, f)));
    }
    const quant::ExecutionModel exec(1000, 4);
    for (double tol : ToleranceGrid(analysis)) {
      for (double frac : {0.1, 0.5, 0.9}) {
        SCOPED_TRACE(fx.name + " tol " + std::to_string(tol) + " frac " +
                     std::to_string(frac));
        const int best = BruteForcePick(formats, bounds, tol * frac, exec);
        EXPECT_EQ(PickIndex(candidates, tol * frac), best);
        const core::AllocationPlan plan =
            core::AllocateTolerance(analysis, tol, Norm::kLinf, frac);
        EXPECT_EQ(plan.format,
                  best < 0 ? NumericFormat::kFP32 : formats[best]);
        EXPECT_EQ(plan.quant_bound, best < 0 ? 0.0 : bounds[best]);
        EXPECT_EQ(plan.input_tolerance,
                  analysis.MaxInputError(tol, Norm::kLinf, plan.format));
      }
    }
  }
}

TEST(PickParityTest, AdmitMatchesBruteForceWithDataDrivenCandidate) {
  const auto now = Clock::now();
  const auto later = now + std::chrono::seconds(1);
  ServerConfig rc;
  rc.data_driven_quantizer = WeightQuantizer::kOptq;
  ModelRegistry registry(rc);
  for (const Fixture& fx : Fixtures()) {
    ASSERT_TRUE(registry.Register(fx.name, fx.build(), fx.shape).ok());
    auto entry = registry.Lookup(fx.name);
    ASSERT_TRUE(entry.ok());
    const ErrorFlowAnalysis& analysis = (*entry)->analysis;
    ASSERT_TRUE((*entry)->data_driven.has_value());

    for (const std::vector<NumericFormat>& allowed :
         {quant::AllFormats(), quant::ReducedFormats()}) {
      // Candidates in Admit's order: the allowed formats, then the
      // data-driven INT8 variant, each bound recomputed from scratch.
      std::vector<NumericFormat> formats = allowed;
      std::vector<WeightQuantizer> quantizers(allowed.size(),
                                              WeightQuantizer::kMaxAffine);
      std::vector<double> bounds;
      for (NumericFormat f : allowed) {
        bounds.push_back(
            analysis.Bound(0.0, Norm::kLinf, ScratchSteps(analysis, f)));
      }
      formats.push_back(NumericFormat::kINT8);
      quantizers.push_back(WeightQuantizer::kOptq);
      bounds.push_back(
          analysis.Bound(0.0, Norm::kLinf, (*entry)->optq_steps));
      std::vector<core::PricedVariant> candidates = analysis.Price(allowed);
      candidates.push_back(*(*entry)->data_driven);

      ServerConfig cfg;
      cfg.allowed_formats = allowed;
      AdmissionController controller(cfg);
      const quant::ExecutionModel exec((*entry)->flops_per_sample,
                                       (*entry)->bytes_per_sample);
      for (double tol : ToleranceGrid(analysis)) {
        for (double frac : {0.1, 0.5, 0.9}) {
          const double budget = tol * frac;
          SCOPED_TRACE(fx.name + " budget " + std::to_string(budget));
          const int best = BruteForcePick(formats, bounds, budget, exec);
          EXPECT_EQ(PickIndex(candidates, budget), best);
          auto decision = controller.Admit(analysis, budget, later, now, 0,
                                           false, &*(*entry)->data_driven);
          if (best < 0) {
            EXPECT_EQ(decision.status().code(),
                      StatusCode::kFailedPrecondition);
            continue;
          }
          ASSERT_TRUE(decision.ok());
          EXPECT_EQ(decision->format, formats[best]);
          EXPECT_EQ(decision->quantizer, quantizers[best]);
          EXPECT_EQ(decision->quant_bound, bounds[best]);
          EXPECT_EQ(decision->slack, budget - bounds[best]);
        }
      }
    }
  }
}

// The plain per-layer loop Materialize replaces: clone, fold, round each
// Dense/Conv weight tensor in traversal order.
nn::Model ReferenceVariant(const nn::Model& model,
                           const std::vector<NumericFormat>& layer_formats,
                           const std::string& suffix) {
  nn::Model out = model.Clone();
  out.set_name(model.name() + suffix);
  out.FoldPsn();
  size_t index = 0;
  out.VisitLayers([&](nn::Layer* layer) {
    Tensor* w = nullptr;
    if (auto* d = dynamic_cast<nn::DenseLayer*>(layer)) {
      w = &d->mutable_weight();
    } else if (auto* c = dynamic_cast<nn::Conv2dLayer*>(layer)) {
      w = &c->mutable_weight();
    } else {
      return;
    }
    const NumericFormat f = layer_formats[index++];
    if (f == NumericFormat::kINT8) {
      quant::QuantizeDequantizeInt8(w);
    } else {
      quant::RoundBufferToFormat(w->data(), w->size(), f);
    }
  });
  return out;
}

// Weight tensors of every Dense/Conv layer, in traversal order.
std::vector<Tensor> LinearWeights(nn::Model* model) {
  std::vector<Tensor> out;
  model->VisitLayers([&out](nn::Layer* layer) {
    if (auto* d = dynamic_cast<nn::DenseLayer*>(layer)) {
      out.push_back(d->weight());
    } else if (auto* c = dynamic_cast<nn::Conv2dLayer*>(layer)) {
      out.push_back(c->weight());
    }
  });
  return out;
}

void ExpectBitIdentical(nn::Model* got, nn::Model* want) {
  const std::vector<Tensor> a = LinearWeights(got);
  const std::vector<Tensor> b = LinearWeights(want);
  ASSERT_EQ(a.size(), b.size());
  for (size_t l = 0; l < a.size(); ++l) {
    ASSERT_EQ(a[l].size(), b[l].size());
    EXPECT_EQ(std::memcmp(a[l].data(), b[l].data(),
                          static_cast<size_t>(a[l].size()) * sizeof(float)),
              0)
        << "layer " << l;
  }
  EXPECT_EQ(ModelRegistry::ChecksumModel(*got),
            ModelRegistry::ChecksumModel(*want));
}

TEST(MaterializeParityTest, MatchesPerLayerReferenceLoop) {
  for (const Fixture& fx : Fixtures()) {
    nn::Model model = fx.build();
    const ErrorFlowAnalysis analysis(core::ProfileModel(model, fx.shape));
    const size_t n = static_cast<size_t>(analysis.LinearLayerCount());
    for (NumericFormat f : quant::ReducedFormats()) {
      SCOPED_TRACE(fx.name + "/" + quant::FormatToString(f));
      quant::MaterializedModel got = quant::Materialize(model, {f});
      nn::Model want = ReferenceVariant(
          model, std::vector<NumericFormat>(n, f),
          std::string(".") + quant::FormatToString(f));
      ExpectBitIdentical(&got.model, &want);
      // The records price exactly the cached steps of the format.
      ASSERT_EQ(got.layers.size(), n);
      EXPECT_EQ(got.EffectiveSteps(), analysis.Steps(f));
    }
    // One mixed assignment cycling through every format.
    std::vector<NumericFormat> mixed;
    for (size_t i = 0; i < n; ++i) {
      mixed.push_back(quant::AllFormats()[i % quant::AllFormats().size()]);
    }
    SCOPED_TRACE(fx.name + "/mixed");
    quant::VariantSpec spec;
    spec.layer_formats = mixed;
    quant::MaterializedModel got = quant::Materialize(model, spec);
    nn::Model want = ReferenceVariant(model, mixed, ".mixed");
    ExpectBitIdentical(&got.model, &want);
  }
}

}  // namespace
}  // namespace serve
}  // namespace errorflow
