// Fig. 2: percentage of inference time spent in data loading,
// pre-processing, and model execution, for standard ResNets (10-class,
// 224x224) and MLPs of the paper's FLOP budgets.
//
// Loading is modeled by the storage tier (2.8 GB/s baseline); preprocessing
// is measured for real (per-feature normalization of the input payload);
// execution uses the calibrated hardware model (DESIGN.md substitution).
#include <cstdio>

#include "common/bench_common.h"
#include "data/dataset.h"
#include "io/sim_storage.h"
#include "quant/hardware_model.h"
#include "util/timer.h"

using namespace errorflow;

namespace {

// Measures real per-sample preprocessing (normalize-to-[-1,1]) seconds.
double MeasurePreprocessSeconds(const bench::ZooEntry& entry) {
  const int64_t batch = 4;
  tensor::Shape shape = entry.single_input_shape;
  shape[0] = batch;
  tensor::Tensor data(shape);
  for (int64_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>((i % 251)) / 251.0f;
  }
  const data::Normalizer norm = data::Normalizer::Fit(data);
  (void)norm.Apply(data);  // Warm-up: page-in buffers and code.
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    util::Stopwatch timer;
    const tensor::Tensor out = norm.Apply(data);
    (void)out;
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best / static_cast<double>(batch);
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Fig. 2 - inference time breakdown (load / preprocess / execute)");
  io::SimulatedStorage storage;  // 2.8 GB/s baseline.

  std::printf("%-10s %12s %10s %10s %10s | %6s %6s %6s\n", "model",
              "MFLOPs", "load(us)", "prep(us)", "exec(us)", "load%",
              "prep%", "exec%");
  for (bench::ZooEntry& entry : bench::BuildModelZoo()) {
    const double load_s = storage.ModelReadSeconds(entry.bytes_per_sample);
    const double prep_s = MeasurePreprocessSeconds(entry);
    quant::ExecutionModel exec(entry.flops_per_sample,
                               entry.bytes_per_sample);
    const double exec_s =
        exec.SecondsPerSample(quant::NumericFormat::kFP32);
    const double total = load_s + prep_s + exec_s;
    std::printf(
        "%-10s %12.1f %10.2f %10.2f %10.2f | %5.1f%% %5.1f%% %5.1f%%\n",
        entry.name.c_str(),
        static_cast<double>(entry.flops_per_sample) / 1e6, load_s * 1e6,
        prep_s * 1e6, exec_s * 1e6, 100 * load_s / total,
        100 * prep_s / total, 100 * exec_s / total);
  }
  std::printf(
      "\npaper shape check: data loading + preprocessing dominate for the\n"
      "small MLPs; execution grows with model FLOPs (Fig. 2).\n");
  return 0;
}
