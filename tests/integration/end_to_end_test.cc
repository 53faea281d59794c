// Integration tests: the central empirical claim of the paper — the derived
// bound (Inequality 3) always dominates the achieved QoI error when real
// compressors and real weight quantization perturb a real network — checked
// as a property over random networks, formats, and backends, plus the full
// trained H2-combustion task.
#include <cmath>

#include "compress/compressor.h"
#include "core/error_bound.h"
#include "core/pipeline.h"
#include "data/combustion.h"
#include "gtest/gtest.h"
#include "nn/builders.h"
#include "nn/dense.h"
#include "nn/residual.h"
#include "nn/trainer.h"
#include "quant/quantize_model.h"
#include "tasks/tasks.h"
#include "testing/eq3_reference.h"
#include "testing/test_util.h"

namespace errorflow {
namespace {

using core::ErrorFlowAnalysis;
using core::ProfileModel;
using nn::Model;
using quant::NumericFormat;
using tensor::Norm;
using tensor::Tensor;

// Max per-sample error between two prediction batches.
double MaxSampleError(const Tensor& a, const Tensor& b, Norm norm) {
  const int64_t n = a.dim(0), per = a.size() / a.dim(0);
  double worst = 0.0;
  for (int64_t s = 0; s < n; ++s) {
    Tensor ra({per}), rb({per});
    for (int64_t i = 0; i < per; ++i) {
      ra[i] = a[s * per + i];
      rb[i] = b[s * per + i];
    }
    worst = std::max(worst, tensor::DiffNorm(ra, rb, norm));
  }
  return worst;
}

struct PropertyCase {
  uint64_t seed;
  NumericFormat format;
  compress::Backend backend;
};

class BoundPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

// THE theorem check: compress the input, quantize the weights, run both —
// the achieved error must not exceed Bound(achieved input error).
TEST_P(BoundPropertyTest, AchievedErrorBelowBound) {
  const PropertyCase& pc = GetParam();
  nn::MlpConfig cfg;
  cfg.input_dim = 7;
  cfg.hidden_dims = {14, 14};
  cfg.output_dim = 5;
  cfg.activation = nn::ActivationKind::kTanh;
  cfg.seed = pc.seed;
  Model model = nn::BuildMlp(cfg);

  ErrorFlowAnalysis analysis(ProfileModel(model, {1, 7}));

  // Smooth normalized batch.
  Tensor batch({64, 7});
  for (int64_t s = 0; s < 64; ++s) {
    for (int64_t f = 0; f < 7; ++f) {
      batch.at(s, f) = static_cast<float>(
          0.9 * std::sin(0.05 * static_cast<double>(s) +
                         1.1 * static_cast<double>(f) +
                         static_cast<double>(pc.seed)));
    }
  }

  auto compressor = compress::MakeCompressor(pc.backend);
  const double eb = 1e-3;
  auto compressed =
      compressor->Compress(batch, compress::ErrorBound::AbsLinf(eb));
  ASSERT_TRUE(compressed.ok());
  auto decompressed = compressor->Decompress(compressed->blob);
  ASSERT_TRUE(decompressed.ok());

  quant::MaterializedModel qm = quant::Materialize(model, {pc.format});

  const Tensor reference = model.Predict(batch);
  const Tensor output = qm.model.Predict(decompressed->data);

  for (Norm norm : {Norm::kL2, Norm::kLinf}) {
    const double achieved_in =
        MaxSampleError(batch, decompressed->data, norm);
    const double achieved_out = MaxSampleError(reference, output, norm);
    const double bound = analysis.Bound(achieved_in, norm, pc.format);
    EXPECT_LE(achieved_out, bound)
        << (norm == Norm::kL2 ? "L2" : "Linf") << " seed " << pc.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BoundPropertyTest,
    ::testing::ValuesIn([] {
      std::vector<PropertyCase> cases;
      for (uint64_t seed : {1ull, 2ull, 3ull}) {
        for (NumericFormat fmt :
             {NumericFormat::kTF32, NumericFormat::kFP16,
              NumericFormat::kBF16, NumericFormat::kINT8}) {
          for (compress::Backend backend :
               {compress::Backend::kSz, compress::Backend::kZfp}) {
            cases.push_back({seed, fmt, backend});
          }
        }
      }
      return cases;
    }()),
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      return std::string("seed") + std::to_string(info.param.seed) + "_" +
             quant::FormatToString(info.param.format) + "_" +
             compress::BackendToString(info.param.backend);
    });

TEST(ResidualBoundTest, BoundHoldsForResidualBlockModel) {
  // A residual MLP block with projection shortcut (Eq. 1 exactly).
  std::vector<std::unique_ptr<nn::Layer>> body;
  auto d1 = std::make_unique<nn::DenseLayer>(6, 12);
  d1->InitXavier(5);
  body.push_back(std::move(d1));
  body.push_back(
      std::make_unique<nn::ActivationLayer>(nn::ActivationKind::kReLU));
  auto d2 = std::make_unique<nn::DenseLayer>(12, 6);
  d2->InitXavier(6);
  body.push_back(std::move(d2));
  auto proj = std::make_unique<nn::DenseLayer>(6, 6);
  proj->InitXavier(7);
  Model model("resblock");
  model.Add(std::make_unique<nn::ResidualBlock>(std::move(body),
                                                std::move(proj), nullptr));
  ErrorFlowAnalysis analysis(ProfileModel(model, {1, 6}));

  Tensor batch = testing::RandomUniformTensor({64, 6}, 8);
  auto compressor = compress::MakeCompressor(compress::Backend::kSz);
  auto compressed =
      compressor->Compress(batch, compress::ErrorBound::AbsLinf(5e-4));
  ASSERT_TRUE(compressed.ok());
  auto decompressed = compressor->Decompress(compressed->blob);
  ASSERT_TRUE(decompressed.ok());

  for (NumericFormat fmt : {NumericFormat::kFP16, NumericFormat::kINT8}) {
    quant::MaterializedModel qm = quant::Materialize(model, {fmt});
    const Tensor reference = model.Predict(batch);
    const Tensor output = qm.model.Predict(decompressed->data);
    const double achieved_in =
        MaxSampleError(batch, decompressed->data, Norm::kL2);
    const double achieved_out =
        MaxSampleError(reference, output, Norm::kL2);
    EXPECT_LE(achieved_out, analysis.Bound(achieved_in, Norm::kL2, fmt));
    // The verbatim Eq. (3) must hold as well for this single-block model.
    EXPECT_LE(achieved_out, testing::Eq3BoundL2(analysis, achieved_in, fmt));
  }
}

TEST(TrainedTaskTest, H2CombustionBoundsHoldEndToEnd) {
  tasks::TrainedTask task =
      tasks::GetTask(tasks::TaskKind::kH2Combustion,
                     tasks::Regularization::kPsn, /*seed=*/1,
                     ::testing::TempDir() + "ef_model_cache");
  core::PipelineConfig cfg;
  cfg.backend = compress::Backend::kSz;
  cfg.norm = Norm::kLinf;
  cfg.quant_fraction = 0.5;
  core::InferencePipeline pipeline(task.model.Clone(),
                                   task.single_input_shape, cfg);
  for (double tol : {1e-1, 1e-2, 1e-3}) {
    auto report = pipeline.Run(task.test.inputs, tol);
    ASSERT_TRUE(report.ok());
    EXPECT_LE(report->achieved_qoi_error, report->predicted_qoi_bound)
        << "tol " << tol;
    EXPECT_LE(report->predicted_qoi_bound, tol * (1 + 1e-9));
  }
}

TEST(TrainedTaskTest, PsnYieldsTighterBoundsThanBaseline) {
  const std::string cache = ::testing::TempDir() + "ef_model_cache";
  tasks::TrainedTask psn = tasks::GetTask(
      tasks::TaskKind::kH2Combustion, tasks::Regularization::kPsn, 1, cache);
  tasks::TrainedTask base =
      tasks::GetTask(tasks::TaskKind::kH2Combustion,
                     tasks::Regularization::kBaseline, 1, cache);
  ErrorFlowAnalysis psn_analysis(
      ProfileModel(psn.model, psn.single_input_shape));
  ErrorFlowAnalysis base_analysis(
      ProfileModel(base.model, base.single_input_shape));
  // PSN constrains spectral norms, so its compression gain (and thus its
  // bound at equal input error) must be smaller.
  EXPECT_LT(psn_analysis.Gain(), base_analysis.Gain());
}

}  // namespace
}  // namespace errorflow
