// Satellite land-use classification under reduction: shows that the
// error-flow framework protects a *downstream decision* (the predicted
// class), not just a numeric QoI. The final feature map (the logits) is
// the quantity of interest, as in the paper's EuroSAT experiment; keeping
// its perturbation below the decision margin keeps classifications stable.

#include <cmath>
#include <cstdio>

#include "core/pipeline.h"
#include "data/eurosat.h"
#include "nn/loss.h"
#include "tasks/tasks.h"

using namespace errorflow;

namespace {

// Fraction of samples whose argmax class changed between two logit sets.
double ClassFlipRate(const tensor::Tensor& a, const tensor::Tensor& b) {
  const int64_t n = a.dim(0), c = a.dim(1);
  int64_t flips = 0;
  for (int64_t s = 0; s < n; ++s) {
    int64_t ba = 0, bb = 0;
    for (int64_t j = 1; j < c; ++j) {
      if (a.at(s, j) > a.at(s, ba)) ba = j;
      if (b.at(s, j) > b.at(s, bb)) bb = j;
    }
    flips += ba != bb ? 1 : 0;
  }
  return static_cast<double>(flips) / static_cast<double>(n);
}

}  // namespace

int main() {
  std::printf("=== EuroSAT-style classification under reduction ===\n\n");
  tasks::TrainedTask task = tasks::GetTask(tasks::TaskKind::kEuroSat);
  const tensor::Tensor logits = task.model.Predict(task.test.inputs);
  const double accuracy =
      nn::SoftmaxCrossEntropyLoss::Accuracy(logits, task.test.targets);
  std::printf("clean test accuracy: %.1f%% (%lld images)\n\n",
              100.0 * accuracy, static_cast<long long>(task.test.size()));

  core::PipelineConfig cfg;
  cfg.backend = compress::Backend::kZfp;  // On-the-fly imagery reduction.
  cfg.norm = tensor::Norm::kLinf;
  cfg.quant_fraction = 0.5;
  core::InferencePipeline pipeline(task.model.Clone(),
                                   task.single_input_shape, cfg);

  double logit_norm = 0.0;
  for (int64_t i = 0; i < logits.size(); ++i) {
    logit_norm =
        std::max(logit_norm, std::fabs(static_cast<double>(logits[i])));
  }

  std::printf("%-10s %-6s %8s %12s %12s %10s %10s\n", "qoi_tol", "fmt",
              "ratio", "achieved", "bound", "acc", "flips");
  for (double tol_rel : {1e-4, 1e-3, 1e-2, 1e-1}) {
    auto report_or = pipeline.Run(task.test.inputs, tol_rel * logit_norm);
    if (!report_or.ok()) {
      std::printf("tol %.0e failed: %s\n", tol_rel,
                  report_or.status().ToString().c_str());
      return 1;
    }
    const core::PipelineReport& r = *report_or;
    // Re-run the reduced pipeline manually to inspect the classes: the
    // report already certifies the logit perturbation; here we show what
    // that certification buys at the decision level.
    quant::MaterializedModel qm = quant::Materialize(task.model, {r.format});
    auto compressor = compress::MakeCompressor(cfg.backend);
    compress::ErrorBound eb;
    eb.norm = cfg.norm;
    eb.relative = false;
    eb.tolerance = r.input_tolerance;
    auto comp = compressor->Compress(task.test.inputs, eb);
    auto dec = compressor->Decompress(comp->blob);
    const tensor::Tensor reduced_logits = qm.model.Predict(dec->data);
    const double reduced_acc = nn::SoftmaxCrossEntropyLoss::Accuracy(
        reduced_logits, task.test.targets);
    std::printf("%-10.0e %-6s %7.1fx %12.3e %12.3e %9.1f%% %9.1f%%\n",
                tol_rel, quant::FormatToString(r.format),
                r.compression_ratio, r.achieved_qoi_error,
                r.predicted_qoi_bound, 100.0 * reduced_acc,
                100.0 * ClassFlipRate(logits, reduced_logits));
  }
  std::printf(
      "\nSmall certified logit perturbations leave classifications\n"
      "unchanged; accuracy only moves when the tolerance approaches the\n"
      "decision margins.\n");
  return 0;
}
