#include "common/bench_common.h"

#include <cmath>
#include <cstdio>

#include "nn/builders.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/norms.h"
#include "tensor/stats.h"

namespace errorflow {
namespace bench {

std::vector<double> LogSweep(double lo_exp, double hi_exp, int points) {
  std::vector<double> out;
  for (int i = 0; i < points; ++i) {
    const double t = points == 1
                         ? 0.0
                         : static_cast<double>(i) / (points - 1);
    out.push_back(std::pow(10.0, lo_exp + t * (hi_exp - lo_exp)));
  }
  return out;
}

void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

double MaxSampleError(const tensor::Tensor& reference,
                      const tensor::Tensor& got, tensor::Norm norm) {
  const int64_t rows = reference.dim(0);
  return tensor::MaxRowError(reference.data(), got.data(), rows,
                             reference.size() / rows, norm);
}

double MaxSampleNorm(const tensor::Tensor& t, tensor::Norm norm) {
  const int64_t rows = t.dim(0);
  return tensor::MaxRowNorm(t.data(), rows, t.size() / rows, norm);
}

double MaxRelativeSampleError(const tensor::Tensor& reference,
                              const tensor::Tensor& got, tensor::Norm norm) {
  const double denom = MaxSampleNorm(reference, norm);
  const double err = MaxSampleError(reference, got, norm);
  return denom > 0.0 ? err / denom : err;
}

std::vector<tasks::TrainedTask> LoadAllTasks(uint64_t seed) {
  std::vector<tasks::TrainedTask> out;
  out.push_back(tasks::GetTask(tasks::TaskKind::kH2Combustion,
                               tasks::Regularization::kPsn, seed));
  out.push_back(tasks::GetTask(tasks::TaskKind::kBorghesiFlame,
                               tasks::Regularization::kPsn, seed));
  out.push_back(tasks::GetTask(tasks::TaskKind::kEuroSat,
                               tasks::Regularization::kPsn, seed));
  return out;
}

double GeoMean(const std::vector<double>& v) {
  return tensor::GeometricMean(v);
}

namespace {

ZooEntry MakeResNetEntry(const std::string& name,
                         std::vector<int64_t> channels,
                         std::vector<int> blocks) {
  nn::ResNetConfig cfg;
  cfg.name = name;
  cfg.in_channels = 3;
  cfg.num_classes = 10;
  cfg.stage_channels = std::move(channels);
  cfg.stage_blocks = std::move(blocks);
  cfg.seed = 1;
  ZooEntry e;
  e.name = name;
  e.model = nn::BuildResNet(cfg);
  e.single_input_shape = {1, 3, 224, 224};
  e.flops_per_sample = e.model.FlopsPerSample(e.single_input_shape);
  e.bytes_per_sample = 3 * 224 * 224 * 4;
  return e;
}

ZooEntry MakeMlpEntry(const std::string& name, int64_t in,
                      std::vector<int64_t> hidden) {
  nn::MlpConfig cfg;
  cfg.name = name;
  cfg.input_dim = in;
  cfg.hidden_dims = std::move(hidden);
  cfg.output_dim = 10;
  cfg.seed = 1;
  ZooEntry e;
  e.name = name;
  e.model = nn::BuildMlp(cfg);
  e.single_input_shape = {1, in};
  e.flops_per_sample = e.model.FlopsPerSample(e.single_input_shape);
  e.bytes_per_sample = in * 4;
  return e;
}

}  // namespace

std::vector<ZooEntry> BuildModelZoo() {
  std::vector<ZooEntry> zoo;
  zoo.push_back(
      MakeResNetEntry("resnet18", {64, 128, 256, 512}, {2, 2, 2, 2}));
  zoo.push_back(
      MakeResNetEntry("resnet34", {64, 128, 256, 512}, {3, 4, 6, 3}));
  // ResNet50 approximated with widened basic blocks at matched FLOPs.
  zoo.push_back(
      MakeResNetEntry("resnet50", {68, 136, 272, 544}, {3, 4, 6, 3}));
  zoo.push_back(MakeMlpEntry("mlp_s", 128, {512, 512, 512}));
  zoo.push_back(MakeMlpEntry("mlp_m", 256, {1400, 1400, 1400}));
  zoo.push_back(MakeMlpEntry("mlp_l", 512, {4000, 4000, 4000}));
  return zoo;
}

void PrintObservabilitySummary() {
  const core::PipelineReport total =
      core::PipelineReport::AggregateFromRegistry();
  const unsigned long long runs = static_cast<unsigned long long>(
      obs::MetricsRegistry::Global().CounterValue(
          "errorflow.pipeline.runs"));
  if (runs == 0) return;
  std::printf("\n--- observability: aggregate over %llu pipeline run(s) ---\n%s",
              runs, total.Summary().c_str());
  std::printf("--- trace span totals ---\n%s",
              obs::TraceBuffer::Global().Summary().c_str());
}

}  // namespace bench
}  // namespace errorflow
