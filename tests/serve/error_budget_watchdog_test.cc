// The bound-violation watchdog end to end: audited batches populate
// errorflow.bound.* (ledgers, audits, the tightness histogram) and emit
// per-request "serve.ledger" trace spans; an injected violation — a
// corrupted cached variant, the PR 5 fault idiom — increments
// errorflow.bound.violations and recovers by invalidating the variant so
// the next lease re-quantizes from the FP32 base.
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>

#include "gtest/gtest.h"
#include "nn/builders.h"
#include "nn/dense.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "quant/format.h"
#include "serve/server.h"
#include "tensor/norms.h"
#include "testing/test_util.h"

namespace errorflow {
namespace serve {
namespace {

using quant::NumericFormat;

nn::Model SmallMlp(uint64_t seed = 7) {
  nn::MlpConfig cfg;
  cfg.name = "m";
  cfg.input_dim = 6;
  cfg.hidden_dims = {8};
  cfg.output_dim = 4;
  cfg.seed = seed;
  return nn::BuildMlp(cfg);
}

InferenceRequest MakeRequest(int64_t rows = 2, double tolerance = 1e-2,
                             uint64_t seed = 5) {
  InferenceRequest req;
  req.model = "mlp";
  req.input = testing::RandomTensor({rows, 6}, seed);
  req.qoi_tolerance = tolerance;
  return req;
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().CounterValue(name);
}

// Flips one weight of the first dense layer through a leased variant —
// the in-memory equivalent of bit rot, guaranteed to blow any bound.
void CorruptFirstDenseWeight(nn::Model* model) {
  for (auto& layer : model->mutable_layers()) {
    if (layer->kind() == nn::LayerKind::kDense) {
      auto* dense = static_cast<nn::DenseLayer*>(layer.get());
      dense->mutable_weight()[0] = dense->mutable_weight()[0] + 1e6f;
      return;
    }
  }
  FAIL() << "model has no dense layer to corrupt";
}

TEST(ErrorBudgetWatchdogTest, PerFormatAdmissionCountersTrackDecisions) {
  ServerConfig cfg;
  cfg.allowed_formats = {NumericFormat::kFP16};
  InferenceServer server(cfg);
  ASSERT_TRUE(server.RegisterModel("mlp", SmallMlp(), {1, 6}).ok());
  ASSERT_TRUE(server.Start().ok());

  const uint64_t fp16_before =
      CounterValue("errorflow.serve.admission.admitted.fp16");
  const uint64_t fp32_before =
      CounterValue("errorflow.serve.admission.admitted.fp32");
  const uint64_t total_before =
      CounterValue("errorflow.serve.admission.admitted");

  constexpr int kRequests = 5;
  for (int i = 0; i < kRequests; ++i) {
    auto submitted =
        server.Submit(MakeRequest(2, 1e-2, 10 + static_cast<uint64_t>(i)));
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    ASSERT_TRUE(submitted->get().ok());
  }
  ASSERT_TRUE(server.Shutdown().ok());

  EXPECT_EQ(CounterValue("errorflow.serve.admission.admitted.fp16"),
            fp16_before + kRequests);
  EXPECT_EQ(CounterValue("errorflow.serve.admission.admitted.fp32"),
            fp32_before);
  EXPECT_EQ(CounterValue("errorflow.serve.admission.admitted"),
            total_before + kRequests);
}

TEST(ErrorBudgetWatchdogTest, AuditRecordsTightnessAndLedgerSpans) {
  ServerConfig cfg;
  cfg.allowed_formats = {NumericFormat::kFP16};
  cfg.audit_fraction = 1.0;
  InferenceServer server(cfg);
  ASSERT_TRUE(server.RegisterModel("mlp", SmallMlp(), {1, 6}).ok());
  ASSERT_TRUE(server.Start().ok());

  const uint64_t ledgers_before = CounterValue("errorflow.bound.ledgers");
  const uint64_t audits_before = CounterValue("errorflow.bound.audits");
  const uint64_t violations_before =
      CounterValue("errorflow.bound.violations");
  const uint64_t tightness_before =
      obs::MetricsRegistry::Global()
          .HistogramSnapshotOf("errorflow.bound.tightness")
          .count;
  const double start_us = obs::NowMicros();

  constexpr int kRequests = 4;
  for (int i = 0; i < kRequests; ++i) {
    auto submitted =
        server.Submit(MakeRequest(2, 1e-2, 20 + static_cast<uint64_t>(i)));
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    ASSERT_TRUE(submitted->get().ok());
  }
  // Shutdown drains the worker pool, so every audit has finished before
  // the assertions below (audits run after responses are delivered).
  ASSERT_TRUE(server.Shutdown().ok());

  EXPECT_EQ(CounterValue("errorflow.bound.ledgers"),
            ledgers_before + kRequests);
  EXPECT_EQ(CounterValue("errorflow.bound.audits"),
            audits_before + kRequests);
  // An intact FP16 variant must honor its admitted bound.
  EXPECT_EQ(CounterValue("errorflow.bound.violations"), violations_before);

  const obs::HistogramSnapshot tightness =
      obs::MetricsRegistry::Global().HistogramSnapshotOf(
          "errorflow.bound.tightness");
  EXPECT_EQ(tightness.count, tightness_before + kRequests);
  EXPECT_GE(tightness.min, 0.0);
  EXPECT_LE(tightness.max, 1.0);

  // Per-model x format tightness series exists too.
  EXPECT_GE(obs::MetricsRegistry::Global()
                .HistogramSnapshotOf("errorflow.bound.tightness.mlp.fp16")
                .count,
            static_cast<uint64_t>(kRequests));

  // Every audited request left a "serve.ledger" span annotated with its
  // provenance (model, format, bound, achieved, tightness).
  int ledger_spans = 0;
  for (const obs::TraceEvent& e : obs::TraceBuffer::Global().Snapshot()) {
    if (e.name != "serve.ledger" || e.ts_us < start_us) continue;
    ++ledger_spans;
    bool has_model = false, has_tightness = false, has_bound = false;
    for (const auto& kv : e.args) {
      if (kv.first == "model") {
        has_model = true;
        EXPECT_EQ(kv.second, "\"mlp\"");
      }
      if (kv.first == "tightness") has_tightness = true;
      if (kv.first == "admitted_bound") has_bound = true;
    }
    EXPECT_TRUE(has_model && has_tightness && has_bound);
  }
  EXPECT_EQ(ledger_spans, kRequests);
}

// The audit measures achieved error in the server's norm: under L2 the
// ledger must hold the L2 row error between the FP32 reference and the
// served output, not the Linf one.
TEST(ErrorBudgetWatchdogTest, AuditMeasuresInTheServerNorm) {
  ServerConfig cfg;
  cfg.norm = tensor::Norm::kL2;
  cfg.allowed_formats = {NumericFormat::kFP16};
  cfg.audit_fraction = 1.0;
  InferenceServer server(cfg);
  ASSERT_TRUE(server.RegisterModel("mlp", SmallMlp(), {1, 6}).ok());
  ASSERT_TRUE(server.Start().ok());

  const double start_us = obs::NowMicros();
  InferenceRequest request = MakeRequest(3, 1e-2, 60);
  const tensor::Tensor input = request.input;
  auto submitted = server.Submit(std::move(request));
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  const InferenceResponse response = submitted->get();
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  ASSERT_EQ(response.format, NumericFormat::kFP16);
  ASSERT_TRUE(server.Shutdown().ok());  // The audit has run.

  auto reference_variant =
      server.registry().GetVariant("mlp", NumericFormat::kFP32);
  ASSERT_TRUE(reference_variant.ok());
  const tensor::Tensor reference =
      (*reference_variant)->model.Predict(input);
  const int64_t rows = input.dim(0);
  const int64_t cols = reference.size() / rows;
  const auto row_error = [&](tensor::Norm norm) {
    return tensor::MaxRowError(reference.data(), response.output.data(),
                               rows, cols, norm);
  };
  const double want = row_error(tensor::Norm::kL2);
  // The two norms must differ here, or the case could not tell them apart.
  ASSERT_NE(want, row_error(tensor::Norm::kLinf));

  int ledger_spans = 0;
  for (const obs::TraceEvent& e : obs::TraceBuffer::Global().Snapshot()) {
    if (e.name != "serve.ledger" || e.ts_us < start_us) continue;
    ++ledger_spans;
    for (const auto& kv : e.args) {
      if (kv.first == "achieved_error") {
        EXPECT_EQ(std::strtod(kv.second.c_str(), nullptr), want);
      }
    }
  }
  EXPECT_EQ(ledger_spans, 1);
}

TEST(ErrorBudgetWatchdogTest, InjectedViolationEvictsAndRequantizes) {
  ServerConfig cfg;
  cfg.allowed_formats = {NumericFormat::kFP16};
  cfg.audit_fraction = 1.0;
  cfg.evict_on_violation = true;
  InferenceServer server(cfg);
  ASSERT_TRUE(server.RegisterModel("mlp", SmallMlp(), {1, 6}).ok());
  ASSERT_TRUE(server.Start().ok());

  // Materialize the FP16 variant, then corrupt it through the lease.
  auto first = server.Submit(MakeRequest(2, 1e-2, 30));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->get().ok());
  auto lease = server.registry().GetVariant("mlp", NumericFormat::kFP16);
  ASSERT_TRUE(lease.ok());
  CorruptFirstDenseWeight(&(*lease)->model);

  // Materialize the FP32 reference variant now: audits lease it
  // asynchronously (after responses are delivered), so without this the
  // quantize_count baseline below would race the first audit's cache miss.
  ASSERT_TRUE(
      server.registry().GetVariant("mlp", NumericFormat::kFP32).ok());

  const uint64_t violations_before =
      CounterValue("errorflow.bound.violations");
  const uint64_t invalidations_before =
      CounterValue("errorflow.serve.registry.invalidations");
  const uint64_t quantizes_before =
      CounterValue("errorflow.serve.registry.quantize_count");

  // Served on the corrupted variant: achieved error >> admitted bound.
  auto second = server.Submit(MakeRequest(2, 1e-2, 31));
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->get().ok());
  // Drain so the audit (and its eviction) has definitely run.
  ASSERT_TRUE(server.Shutdown().ok());

  EXPECT_EQ(CounterValue("errorflow.bound.violations"),
            violations_before + 1);
  EXPECT_EQ(CounterValue("errorflow.serve.registry.invalidations"),
            invalidations_before + 1);

  // Recovery: the next lease re-quantizes a clean variant from the base.
  auto healed = server.registry().GetVariant("mlp", NumericFormat::kFP16);
  ASSERT_TRUE(healed.ok());
  EXPECT_NE(healed->get(), lease->get());
  EXPECT_EQ(CounterValue("errorflow.serve.registry.quantize_count"),
            quantizes_before + 1);
}

// A variant whose output is NaN breaks every bound: the audit must count
// it as a violation and evict it, not measure the NaN rows as exact.
TEST(ErrorBudgetWatchdogTest, NanVariantIsViolationAndEvicted) {
  ServerConfig cfg;
  cfg.allowed_formats = {NumericFormat::kFP16};
  cfg.audit_fraction = 1.0;
  cfg.evict_on_violation = true;
  InferenceServer server(cfg);
  ASSERT_TRUE(server.RegisterModel("mlp", SmallMlp(), {1, 6}).ok());
  ASSERT_TRUE(server.Start().ok());

  auto first = server.Submit(MakeRequest(2, 1e-2, 50));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->get().ok());
  auto lease = server.registry().GetVariant("mlp", NumericFormat::kFP16);
  ASSERT_TRUE(lease.ok());
  bool poisoned = false;
  for (auto& layer : (*lease)->model.mutable_layers()) {
    if (layer->kind() == nn::LayerKind::kDense) {
      static_cast<nn::DenseLayer*>(layer.get())->mutable_weight()[0] =
          std::numeric_limits<float>::quiet_NaN();
      poisoned = true;
      break;
    }
  }
  ASSERT_TRUE(poisoned);
  ASSERT_TRUE(
      server.registry().GetVariant("mlp", NumericFormat::kFP32).ok());

  const uint64_t violations_before =
      CounterValue("errorflow.bound.violations");
  const uint64_t invalidations_before =
      CounterValue("errorflow.serve.registry.invalidations");

  auto second = server.Submit(MakeRequest(2, 1e-2, 51));
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->get().ok());
  ASSERT_TRUE(server.Shutdown().ok());

  EXPECT_EQ(CounterValue("errorflow.bound.violations"),
            violations_before + 1);
  EXPECT_EQ(CounterValue("errorflow.serve.registry.invalidations"),
            invalidations_before + 1);
  auto healed = server.registry().GetVariant("mlp", NumericFormat::kFP16);
  ASSERT_TRUE(healed.ok());
  EXPECT_NE(healed->get(), lease->get());
}

TEST(ErrorBudgetWatchdogTest, AuditDisabledByDefault) {
  InferenceServer server;
  ASSERT_TRUE(server.RegisterModel("mlp", SmallMlp(), {1, 6}).ok());
  ASSERT_TRUE(server.Start().ok());

  const uint64_t audits_before = CounterValue("errorflow.bound.audits");
  auto submitted = server.Submit(MakeRequest(2, 1e-2, 40));
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(submitted->get().ok());
  ASSERT_TRUE(server.Shutdown().ok());
  EXPECT_EQ(CounterValue("errorflow.bound.audits"), audits_before);
}

TEST(ErrorBudgetWatchdogTest, Fp32BatchesAreNeverAudited) {
  ServerConfig cfg;
  cfg.allowed_formats = {NumericFormat::kFP32};
  cfg.audit_fraction = 1.0;
  InferenceServer server(cfg);
  ASSERT_TRUE(server.RegisterModel("mlp", SmallMlp(), {1, 6}).ok());
  ASSERT_TRUE(server.Start().ok());

  const uint64_t audits_before = CounterValue("errorflow.bound.audits");
  auto submitted = server.Submit(MakeRequest(2, 1e-2, 50));
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(submitted->get().ok());
  ASSERT_TRUE(server.Shutdown().ok());
  EXPECT_EQ(CounterValue("errorflow.bound.audits"), audits_before);
}

}  // namespace
}  // namespace serve
}  // namespace errorflow
