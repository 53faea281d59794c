// AutoTune on the Borghesi-flame surrogate, the strategy optimizer the
// paper's Sec. IV-D calls for. Under one output-error tolerance it tries
// every weight format, gives the compressor the tolerance that format
// leaves over, measures the compression ratio and decompression speed on
// the test inputs, and picks the format with the highest end-to-end
// throughput.

#include <cstdio>

#include "core/pipeline.h"
#include "quant/format.h"
#include "tasks/tasks.h"

using namespace errorflow;

int main() {
  std::printf("=== ErrorFlow AutoTune (Borghesi flame) ===\n\n");
  tasks::TrainedTask task = tasks::GetTask(tasks::TaskKind::kBorghesiFlame);
  core::InferencePipeline pipeline(task.model.Clone(),
                                   task.single_input_shape,
                                   core::PipelineConfig{});
  const double tol = 0.05;
  auto tuned = pipeline.AutoTune(tol, task.test.inputs);
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
