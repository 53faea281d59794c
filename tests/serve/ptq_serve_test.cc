// Data-driven INT8 serving (the PR's acceptance pin): a registry in
// data-driven mode prices a measurably tighter INT8 bound than max-affine,
// the admission controller uses it to admit tolerances that max-affine
// INT8 cannot — routing requests to INT8 where a max-affine-only
// controller settles for a slower wide format — and the FP32 watchdog
// audits the new variants with zero bound violations. Also pins the
// admission boundary semantics (tolerance == bound admits) across every
// format, max-affine and data-driven alike.
#include <atomic>
#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "core/spectral_profile.h"
#include "gtest/gtest.h"
#include "nn/builders.h"
#include "obs/metrics.h"
#include "quant/format.h"
#include "quant/hardware_model.h"
#include "serve/server.h"
#include "util/random.h"

namespace errorflow {
namespace serve {
namespace {

using quant::NumericFormat;
using quant::WeightQuantizer;
using tensor::Tensor;

nn::Model BuildModel(uint64_t seed = 7) {
  nn::MlpConfig cfg;
  cfg.name = "m";
  cfg.input_dim = 6;
  cfg.hidden_dims = {8};
  cfg.output_dim = 4;
  cfg.seed = seed;
  return nn::BuildMlp(cfg);
}

Tensor UniformInput(int64_t rows, uint64_t seed) {
  Tensor t({rows, 6});
  util::Rng rng(seed);
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  return t;
}

/// Registers BuildModel() into a data-driven registry and returns the
/// entry (steps priced, calibration cached).
const ModelRegistry::Entry* RegisterDataDriven(ModelRegistry* registry) {
  EXPECT_TRUE(registry->Register("m", BuildModel(), {1, 6}).ok());
  auto entry = registry->Lookup("m");
  EXPECT_TRUE(entry.ok());
  return *entry;
}

TEST(PtqServeTest, RegistryPricesTighterDataDrivenBound) {
  ServerConfig rc;
  rc.data_driven_quantizer = WeightQuantizer::kOptq;
  ModelRegistry registry(rc);
  const ModelRegistry::Entry* entry = RegisterDataDriven(&registry);

  ASSERT_EQ(static_cast<int64_t>(entry->optq_steps.size()),
            entry->analysis.LinearLayerCount());
  ASSERT_GT(entry->calibration.size(), 0);

  const double data_bound =
      entry->analysis.Bound(0.0, tensor::Norm::kLinf, entry->optq_steps);
  const double affine_bound =
      entry->analysis.Bound(0.0, tensor::Norm::kLinf, NumericFormat::kINT8);
  EXPECT_GT(data_bound, 0.0);
  // The acceptance claim at the bound level: data-driven INT8 is
  // measurably tighter than the worst-case Table-I step.
  EXPECT_LT(data_bound, affine_bound * 0.9);
  // Register priced the candidate admission ranks from the same steps.
  ASSERT_TRUE(entry->data_driven.has_value());
  EXPECT_EQ(entry->data_driven->format, NumericFormat::kINT8);
  EXPECT_EQ(entry->data_driven->quantizer, WeightQuantizer::kOptq);
  EXPECT_EQ(entry->data_driven->quant_term, data_bound);
}

TEST(PtqServeTest, MaxAffineRegistryPricesNothing) {
  ModelRegistry registry;  // data_driven_quantizer = kMaxAffine.
  const ModelRegistry::Entry* entry = RegisterDataDriven(&registry);
  EXPECT_TRUE(entry->optq_steps.empty());
  EXPECT_FALSE(entry->data_driven.has_value());
  EXPECT_EQ(entry->calibration.size(), 0);
  // And a data-driven lease against it is a typed failure, not a crash.
  auto variant = registry.GetVariant("m", NumericFormat::kINT8,
                                     WeightQuantizer::kOptq);
  EXPECT_EQ(variant.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PtqServeTest, DataDrivenVariantIsDistinctAndDeterministic) {
  ServerConfig rc;
  rc.data_driven_quantizer = WeightQuantizer::kOptq;
  ModelRegistry registry(rc);
  RegisterDataDriven(&registry);

  auto affine = registry.GetVariant("m", NumericFormat::kINT8);
  auto optq =
      registry.GetVariant("m", NumericFormat::kINT8, WeightQuantizer::kOptq);
  ASSERT_TRUE(affine.ok());
  ASSERT_TRUE(optq.ok());
  EXPECT_EQ((*optq)->quantizer, WeightQuantizer::kOptq);
  EXPECT_NE((*affine)->checksum, (*optq)->checksum);
  EXPECT_EQ(registry.variant_count(), 2);

  // Invalidate and rematerialize: the deterministic quantizer reproduces
  // the variant bit-exactly — the weights admission priced are the
  // weights that serve.
  const uint64_t checksum = (*optq)->checksum;
  EXPECT_TRUE(registry.InvalidateVariant("m", NumericFormat::kINT8,
                                         WeightQuantizer::kOptq));
  auto again =
      registry.GetVariant("m", NumericFormat::kINT8, WeightQuantizer::kOptq);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->checksum, checksum);

  // Quantizer arguments are INT8-only.
  auto bad = registry.GetVariant("m", NumericFormat::kFP16,
                                 WeightQuantizer::kOptq);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(PtqServeTest, MisshapedCalibrationIsRejected) {
  ServerConfig rc;
  rc.data_driven_quantizer = WeightQuantizer::kOptq;
  ModelRegistry registry(rc);
  // Wrong trailing dim: the model takes {n, 6}, the batch is {n, 5}. Must
  // surface as a typed error at Register, not an EF_CHECK abort inside the
  // calibration forward pass.
  Tensor bad_width({4, 5});
  bad_width.Fill(0.25f);
  auto status = registry.Register("m", BuildModel(), {1, 6}, bad_width);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // Wrong rank.
  Tensor bad_rank({4, 6, 1});
  bad_rank.Fill(0.25f);
  status = registry.Register("m", BuildModel(), {1, 6}, bad_rank);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // A well-shaped batch (any sample count) still registers.
  Tensor good({4, 6});
  good.Fill(0.25f);
  EXPECT_TRUE(registry.Register("m", BuildModel(), {1, 6}, good).ok());
}

TEST(PtqServeTest, ConcurrentMaterializationAndServingIsRaceFree) {
  // Data-driven materialization runs a calibration forward pass on a
  // scheduler worker while peers execute live Forwards. The calibration
  // observer is thread-local, so those serving Forwards must never feed
  // the materializer's Gram collector (a data race, and Grams the priced
  // steps were not measured on), and overlapping materializations must
  // not interleave their install/restore pairs. Pinned here by racing
  // invalidate/rematerialize cycles against FP32 leases under TSan and
  // checking every rematerialized variant still matches the checksum the
  // registry priced at Register.
  ServerConfig rc;
  rc.data_driven_quantizer = WeightQuantizer::kOptq;
  // A large calibration batch keeps each materialization's forward pass —
  // the window in which an observer is installed — wide enough that the
  // racing serving Forwards below reliably overlap it, even on one core.
  rc.calibration_samples = 4096;
  ModelRegistry registry(rc);
  RegisterDataDriven(&registry);

  uint64_t priced_checksum = 0;
  {
    auto primed = registry.GetVariant("m", NumericFormat::kINT8,
                                      WeightQuantizer::kOptq);
    ASSERT_TRUE(primed.ok());
    priced_checksum = (*primed)->checksum;
  }

  const Tensor probe = UniformInput(64, 42);
  Tensor reference;
  {
    auto fp32 = registry.GetVariant("m", NumericFormat::kFP32);
    ASSERT_TRUE(fp32.ok());
    reference = (*fp32)->model.Predict(probe);
  }

  constexpr int kRounds = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  // Two materializer threads force overlapping calibration passes.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        registry.InvalidateVariant("m", NumericFormat::kINT8,
                                   WeightQuantizer::kOptq);
        auto variant = registry.GetVariant("m", NumericFormat::kINT8,
                                           WeightQuantizer::kOptq);
        if (!variant.ok() ||
            (*variant)->checksum != priced_checksum) {
          ++failures;
        }
      }
    });
  }
  // Two serving threads keep Forwards in flight the whole time.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds * 4; ++i) {
        auto fp32 = registry.GetVariant("m", NumericFormat::kFP32);
        if (!fp32.ok()) {
          ++failures;
          continue;
        }
        Tensor out = (*fp32)->model.Predict(probe);
        if (out.size() != reference.size()) {
          ++failures;
          continue;
        }
        for (int64_t j = 0; j < out.size(); ++j) {
          if (out[j] != reference[j]) {
            ++failures;
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(PtqServeTest, ToleranceEqualToBoundAdmitsAcrossAllFormats) {
  core::ErrorFlowAnalysis analysis(core::ProfileModel(BuildModel(), {1, 6}));
  const auto later = Clock::now() + std::chrono::seconds(1);
  // Boundary semantics: the bound fitting the tolerance exactly is an
  // admit, not a reject — pinned per format so a comparison flip in the
  // controller cannot slip through.
  for (NumericFormat f : quant::ReducedFormats()) {
    ServerConfig cfg;
    cfg.allowed_formats = {f};
    AdmissionController controller(cfg);
    const double bound = analysis.Bound(0.0, cfg.norm, f);
    ASSERT_GT(bound, 0.0);
    auto decision =
        controller.Admit(analysis, bound, later, Clock::now(), 0);
    ASSERT_TRUE(decision.ok()) << quant::FormatToString(f);
    EXPECT_EQ(decision->format, f);
    EXPECT_DOUBLE_EQ(decision->slack, 0.0);
  }
}

TEST(PtqServeTest, DataDrivenBoundaryToleranceAdmits) {
  ServerConfig rc;
  rc.data_driven_quantizer = WeightQuantizer::kOptq;
  ModelRegistry registry(rc);
  const ModelRegistry::Entry* entry = RegisterDataDriven(&registry);

  ServerConfig cfg;
  cfg.allowed_formats = {NumericFormat::kINT8};
  AdmissionController controller(cfg);
  const double data_bound =
      entry->analysis.Bound(0.0, cfg.norm, entry->optq_steps);
  const auto later = Clock::now() + std::chrono::seconds(1);
  auto decision =
      controller.Admit(entry->analysis, data_bound, later, Clock::now(), 0,
                       false, &*entry->data_driven);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->format, NumericFormat::kINT8);
  EXPECT_EQ(decision->quantizer, WeightQuantizer::kOptq);
  EXPECT_DOUBLE_EQ(decision->slack, 0.0);
}

TEST(PtqServeTest, DataDrivenInt8AdmitsWhereMaxAffineRoutesSlower) {
  ServerConfig rc;
  rc.data_driven_quantizer = WeightQuantizer::kOptq;
  ModelRegistry registry(rc);
  const ModelRegistry::Entry* entry = RegisterDataDriven(&registry);

  ServerConfig cfg;
  cfg.allowed_formats = quant::ReducedFormats();
  const double data_bound =
      entry->analysis.Bound(0.0, cfg.norm, entry->optq_steps);
  const double affine_bound =
      entry->analysis.Bound(0.0, cfg.norm, NumericFormat::kINT8);
  // Fixture precondition: a tolerance band that only data-driven INT8 can
  // claim for INT8. Wide formats stay feasible there, so the max-affine
  // controller still admits — just onto slower silicon.
  ASSERT_LT(data_bound, affine_bound);
  const double tolerance = data_bound + 0.5 * (affine_bound - data_bound);

  const auto later = Clock::now() + std::chrono::seconds(1);
  AdmissionController controller(cfg);

  auto affine_decision =
      controller.Admit(entry->analysis, tolerance, later, Clock::now(), 0);
  auto data_decision =
      controller.Admit(entry->analysis, tolerance, later, Clock::now(), 0,
                       false, &*entry->data_driven);
  ASSERT_TRUE(affine_decision.ok());
  ASSERT_TRUE(data_decision.ok());

  // Max-affine cannot put this tolerance on INT8; data-driven can.
  EXPECT_NE(affine_decision->format, NumericFormat::kINT8);
  EXPECT_EQ(data_decision->format, NumericFormat::kINT8);
  EXPECT_EQ(data_decision->quantizer, WeightQuantizer::kOptq);

  // And the reroute is a speedup, not a sidestep.
  quant::ExecutionModel exec(100, 100);
  EXPECT_LT(exec.SecondsPerSample(data_decision->format),
            exec.SecondsPerSample(affine_decision->format));
}

TEST(PtqServeTest, SpeedTiePrefersMaxAffineInt8) {
  ServerConfig rc;
  rc.data_driven_quantizer = WeightQuantizer::kOptq;
  ModelRegistry registry(rc);
  const ModelRegistry::Entry* entry = RegisterDataDriven(&registry);

  ServerConfig cfg;
  cfg.allowed_formats = quant::ReducedFormats();
  AdmissionController controller(cfg);
  // Loose enough for max-affine INT8: both INT8 candidates fit, speeds
  // tie, and the worst-case variant (no calibration dependency) wins.
  const double loose =
      entry->analysis.Bound(0.0, cfg.norm, NumericFormat::kINT8) * 2.0;
  const auto later = Clock::now() + std::chrono::seconds(1);
  auto decision = controller.Admit(entry->analysis, loose, later,
                                   Clock::now(), 0, false,
                                   &*entry->data_driven);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->format, NumericFormat::kINT8);
  EXPECT_EQ(decision->quantizer, WeightQuantizer::kMaxAffine);
}

TEST(PtqServeTest, ServerServesDataDrivenInt8AndWatchdogStaysClean) {
  auto& metrics = obs::MetricsRegistry::Global();
  const uint64_t violations_before =
      metrics.GetCounter("errorflow.bound.violations")->value();
  const uint64_t audits_before =
      metrics.GetCounter("errorflow.bound.audits")->value();
  const uint64_t data_driven_before =
      metrics.GetCounter("errorflow.serve.admission.admitted.data_driven")
          ->value();

  ServerConfig config;
  config.num_workers = 2;
  config.allowed_formats = quant::ReducedFormats();
  config.data_driven_quantizer = WeightQuantizer::kOptq;
  config.audit_fraction = 1.0;  // Audit every quantized batch.
  InferenceServer server(config);
  ASSERT_TRUE(server.RegisterModel("m", BuildModel(), {1, 6}).ok());
  ASSERT_TRUE(server.Start().ok());

  auto entry = server.registry().Lookup("m");
  ASSERT_TRUE(entry.ok());
  const double data_bound =
      (*entry)->analysis.Bound(0.0, config.norm, (*entry)->optq_steps);
  const double affine_bound = (*entry)->analysis.Bound(
      0.0, config.norm, NumericFormat::kINT8);
  ASSERT_LT(data_bound, affine_bound);
  const double band_tolerance =
      data_bound + 0.5 * (affine_bound - data_bound);

  // Requests in the band serve on data-driven INT8...
  for (int i = 0; i < 4; ++i) {
    InferenceRequest request;
    request.model = "m";
    request.input = UniformInput(2, 100 + static_cast<uint64_t>(i));
    request.qoi_tolerance = band_tolerance;
    auto future = server.Submit(std::move(request));
    ASSERT_TRUE(future.ok());
    InferenceResponse response = future->get();
    ASSERT_TRUE(response.ok()) << response.status.ToString();
    EXPECT_EQ(response.format, NumericFormat::kINT8);
    EXPECT_EQ(response.quantizer, WeightQuantizer::kOptq);
    EXPECT_LE(response.predicted_qoi_bound, band_tolerance);
  }
  // ...while loose requests stay on the max-affine variant.
  {
    InferenceRequest request;
    request.model = "m";
    request.input = UniformInput(2, 999);
    request.qoi_tolerance = affine_bound * 2.0;
    auto future = server.Submit(std::move(request));
    ASSERT_TRUE(future.ok());
    InferenceResponse response = future->get();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.format, NumericFormat::kINT8);
    EXPECT_EQ(response.quantizer, WeightQuantizer::kMaxAffine);
  }
  ASSERT_TRUE(server.Shutdown().ok());

  // The watchdog audited the data-driven batches and found the composed
  // bound covering the achieved error every time.
  EXPECT_GT(metrics.GetCounter("errorflow.bound.audits")->value(),
            audits_before);
  EXPECT_EQ(metrics.GetCounter("errorflow.bound.violations")->value(),
            violations_before);
  EXPECT_GE(
      metrics.GetCounter("errorflow.serve.admission.admitted.data_driven")
          ->value(),
      data_driven_before + 4);
}

}  // namespace
}  // namespace serve
}  // namespace errorflow
