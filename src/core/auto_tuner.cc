#include "core/auto_tuner.h"

#include <algorithm>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace errorflow {
namespace core {

Result<AutoTuneResult> AutoTune(const ErrorFlowAnalysis& analysis,
                                double qoi_tolerance,
                                const tensor::Tensor& sample_batch,
                                int64_t flops_per_sample,
                                int64_t bytes_per_sample,
                                const AutoTuneConfig& config) {
  if (sample_batch.ndim() < 2) {
    return Status::InvalidArgument("auto-tune: batch tensor required");
  }
  auto compressor = compress::MakeCompressor(config.backend, config.codec);
  if (!compressor->SupportsNorm(config.norm)) {
    return Status::InvalidArgument(
        "auto-tune: backend does not support the requested norm");
  }
  io::SimulatedStorage storage(config.storage);
  quant::ExecutionModel exec(quant::HardwareProfile{}, flops_per_sample,
                             bytes_per_sample);
  const int64_t batch = sample_batch.dim(0);

  AutoTuneResult result;
  obs::Counter* evaluations = obs::MetricsRegistry::Global().GetCounter(
      "errorflow.autotune.evaluations");
  for (NumericFormat format : quant::AllFormats()) {
    obs::TraceSpan span(std::string("autotune.candidate.") +
                        quant::FormatToString(format));
    AutoTuneCandidate cand;
    cand.format = format;
    const double quant = analysis.QuantTerm(format);
    if (quant >= qoi_tolerance) {
      result.candidates.push_back(cand);  // Infeasible.
      continue;
    }
    evaluations->Increment();
    cand.feasible = true;
    cand.input_tolerance =
        analysis.MaxInputError(qoi_tolerance, config.norm, format);

    compress::ErrorBound eb;
    eb.norm = config.norm;
    eb.relative = false;
    eb.tolerance = cand.input_tolerance;
    EF_ASSIGN_OR_RETURN(compress::Compressed comp,
                        compressor->Compress(sample_batch, eb));
    cand.compression_ratio = comp.ratio();
    EF_ASSIGN_OR_RETURN(compress::Decompressed dec,
                        compressor->Decompress(comp.blob));
    const double read_s =
        storage.ModelReadSeconds(static_cast<int64_t>(comp.blob.size()));
    const double dec_s =
        dec.seconds / std::max(1.0, config.storage.decompress_parallelism);
    const double bytes = static_cast<double>(comp.original_bytes);
    cand.io_throughput = bytes / std::max(1e-12, read_s + dec_s);
    cand.exec_throughput =
        bytes / std::max(1e-12, exec.SecondsPerSample(format) *
                                    static_cast<double>(batch));
    cand.total_throughput =
        std::min(cand.io_throughput, cand.exec_throughput);
    result.candidates.push_back(cand);
    if (cand.total_throughput > result.best.total_throughput) {
      result.best = cand;
    }
  }
  if (!result.best.feasible) {
    return Status::FailedPrecondition(
        "auto-tune: no format admissible under the tolerance");
  }
  return result;
}

}  // namespace core
}  // namespace errorflow
