// Advanced features tour: the paper's future-work list in action on the
// Borghesi-flame surrogate —
//   1. per-layer mixed-precision planning under an error budget,
//   2. grouped INT8 quantization with its tighter bound,
//   3. activation quantization with the extended bound,
//   4. AutoTune: picking the throughput-optimal strategy directly.

#include <cmath>
#include <cstdio>
#include <vector>

#include "core/mixed_precision.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "quant/activation_quant.h"
#include "quant/grouped.h"
#include "quant/hardware_model.h"
#include "quant/quantize_model.h"
#include "tasks/tasks.h"

using namespace errorflow;

int main() {
  std::printf("=== ErrorFlow extensions tour (Borghesi flame) ===\n\n");
  tasks::TrainedTask task = tasks::GetTask(tasks::TaskKind::kBorghesiFlame);
  core::ErrorFlowAnalysis analysis(
      core::ProfileModel(task.model, task.single_input_shape));
  const tensor::Tensor& inputs = task.test.inputs;
  const tensor::Tensor reference = task.model.Predict(inputs);

  // ---- 1. Mixed precision -------------------------------------------
  const double budget = analysis.QuantTerm(quant::NumericFormat::kFP16) * 4;
  const core::MixedPrecisionPlan plan =
      core::PlanMixedPrecision(analysis, budget);
  std::printf("mixed-precision plan under budget %.2e:\n", budget);
  std::printf("  formats:");
  for (quant::NumericFormat f : plan.formats) {
    std::printf(" %s", quant::FormatToString(f));
  }
  std::printf("\n  bound %.3e, modeled speedup %.2fx (uniform fp16: %.2fx)\n\n",
              plan.quant_bound, plan.modeled_speedup,
              quant::ModeledSpeedup(quant::NumericFormat::kFP16));

  // ---- 2. Grouped INT8 ------------------------------------------------
  quant::GroupedConfig gcfg;
  gcfg.scheme = quant::GroupScheme::kPerRow;
  nn::Model grouped = task.model.Clone();
  grouped.VisitLayers([&gcfg](nn::Layer* layer) {
    if (auto* d = dynamic_cast<nn::DenseLayer*>(layer)) {
      quant::QuantizeDequantizeInt8Grouped(&d->mutable_weight(), gcfg);
    }
  });
  std::vector<double> grouped_steps;
  for (const core::LayerProfile* layer : analysis.LinearLayers()) {
    grouped_steps.push_back(quant::GroupedInt8StepSize(layer->weight, gcfg));
  }
  std::printf("INT8 bounds: uniform %.3e, per-row grouped %.3e\n\n",
              analysis.QuantTerm(quant::NumericFormat::kINT8),
              analysis.QuantTerm(grouped_steps));

  // ---- 3. Activation quantization -------------------------------------
  quant::MaterializedModel fp16 =
      quant::Materialize(task.model, {quant::NumericFormat::kFP16});
  const tensor::Tensor wa_out = quant::PredictWithQuantizedActivations(
      &fp16.model, inputs, quant::NumericFormat::kFP16);
  double achieved = 0.0;
  for (int64_t i = 0; i < reference.size(); ++i) {
    achieved = std::max(
        achieved, std::fabs(static_cast<double>(wa_out[i]) - reference[i]));
  }
  std::printf("fp16 weights+activations: achieved %.3e <= bound %.3e\n\n",
              achieved,
              analysis.QuantTermWithActivations(
                  quant::NumericFormat::kFP16, quant::NumericFormat::kFP16));

  // ---- 4. AutoTune -----------------------------------------------------
  core::InferencePipeline pipeline(task.model.Clone(),
                                   task.single_input_shape,
                                   core::PipelineConfig{});
  const double tol = 0.05;
  auto tuned = pipeline.AutoTune(tol, inputs);
  if (!tuned.ok()) {
    std::printf("auto-tune failed: %s\n", tuned.status().ToString().c_str());
    return 1;
  }
  std::printf("AutoTune @ tol %.2e: candidates\n", tol);
  for (const core::AutoTuneCandidate& c : tuned->candidates) {
    std::printf("  %-5s %s  eps=%-10.2e total %.2f GB/s\n",
                quant::FormatToString(c.format),
                c.feasible ? "ok " : "infeasible", c.input_tolerance,
                c.total_throughput / 1e9);
  }
  std::printf("  -> chose %s\n", quant::FormatToString(tuned->best.format));
  return 0;
}
