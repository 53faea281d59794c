// Error-budget planner: the "what if" tool a scientist runs before a
// campaign. Given a trained model, it prints the spectral profile, the
// quantization-only bounds per format, and — for a grid of QoI tolerances
// and quantization fractions — the allocation the framework would choose,
// without running any data through the pipeline.

#include <cstdio>

#include "core/allocator.h"
#include "core/error_bound.h"
#include "tasks/tasks.h"

using namespace errorflow;

static void PlanTask(tasks::TaskKind kind) {
  tasks::TrainedTask task = tasks::GetTask(kind);
  core::ErrorFlowAnalysis analysis(
      core::ProfileModel(task.model, task.single_input_shape));
  const core::ModelProfile& profile = analysis.profile();

  std::printf("\n==== %s ====\n", tasks::TaskKindToString(kind));
  std::printf("network: n0=%lld, n_out=%lld, blocks=%zu, gain=%.3f\n",
              static_cast<long long>(profile.n0),
              static_cast<long long>(profile.n_out), profile.blocks.size(),
              analysis.Gain());
  std::printf("per-layer spectral norms:\n");
  for (const core::BlockProfile& block : profile.blocks) {
    for (const core::LayerProfile& layer : block.body) {
      std::printf("  %-30s sigma=%7.3f\n", layer.name.substr(0, 30).c_str(),
                  layer.sigma);
    }
    if (block.is_residual) {
      std::printf("  [residual: sigma_s=%.3f]\n",
                  block.has_projection ? block.shortcut.sigma : 1.0);
    }
  }

  std::printf("quantization-only QoI bounds:\n");
  for (quant::NumericFormat fmt : quant::ReducedFormats()) {
    std::printf("  %-5s : %.3e\n", quant::FormatToString(fmt),
                analysis.QuantTerm(fmt));
  }

  std::printf("allocation plan (Linf):\n");
  std::printf("  %-10s", "qoi_tol");
  for (double frac : {0.25, 0.5, 0.75}) {
    std::printf("  frac=%.2f            ", frac);
  }
  std::printf("\n");
  for (double tol : {1e-4, 1e-3, 1e-2, 1e-1}) {
    std::printf("  %-10.0e", tol);
    for (double frac : {0.25, 0.5, 0.75}) {
      const core::AllocationPlan plan = core::AllocateTolerance(
          analysis, tol, tensor::Norm::kLinf, frac);
      std::printf("  %-5s eps=%-9.2e   ",
                  quant::FormatToString(plan.format),
                  plan.input_tolerance);
    }
    std::printf("\n");
  }
}

int main() {
  std::printf("=== ErrorFlow budget planner ===\n");
  PlanTask(tasks::TaskKind::kH2Combustion);
  PlanTask(tasks::TaskKind::kBorghesiFlame);
  PlanTask(tasks::TaskKind::kEuroSat);
  return 0;
}
