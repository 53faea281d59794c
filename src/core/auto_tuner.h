#ifndef ERRORFLOW_CORE_AUTO_TUNER_H_
#define ERRORFLOW_CORE_AUTO_TUNER_H_

#include <vector>

#include "compress/compressor.h"
#include "core/error_bound.h"
#include "io/sim_storage.h"
#include "quant/hardware_model.h"
#include "util/result.h"

namespace errorflow {
namespace core {

/// \brief The paper's Sec. IV-D observation — "allocating a fixed
/// proportion of the total tolerance to quantization does not consistently
/// yield an optimal strategy ... this highlights the need for an
/// optimization algorithm to automate the determination of the optimal
/// strategy" — implemented.
///
/// Instead of a fixed quantization fraction, the tuner enumerates every
/// admissible quantization format (the discrete axis), derives the
/// compression tolerance each one leaves over (the continuous axis,
/// closed-form from the affine bound), *measures* the resulting
/// compression ratio and decompression speed on a sample batch, models
/// execution with the hardware profile, and picks the format maximizing
/// end-to-end throughput.
struct AutoTuneConfig {
  compress::Backend backend = compress::Backend::kSz;
  /// Entropy codec for newly written compressed streams.
  compress::CodecId codec = compress::kDefaultCodec;
  tensor::Norm norm = tensor::Norm::kLinf;
  io::StorageConfig storage;
};

/// One evaluated (format, compression tolerance) candidate.
struct AutoTuneCandidate {
  NumericFormat format = NumericFormat::kFP32;
  bool feasible = false;
  double input_tolerance = 0.0;
  double compression_ratio = 0.0;
  double io_throughput = 0.0;    // bytes of original data / s
  double exec_throughput = 0.0;  // bytes of original data / s
  double total_throughput = 0.0;
};

/// Tuning outcome: the winner plus the full candidate table (for reports).
struct AutoTuneResult {
  AutoTuneCandidate best;
  std::vector<AutoTuneCandidate> candidates;
};

/// Evaluates all formats on `sample_batch` under `qoi_tolerance` and
/// returns the throughput-optimal choice. `flops_per_sample` /
/// `bytes_per_sample` as in quant::ExecutionModel.
Result<AutoTuneResult> AutoTune(const ErrorFlowAnalysis& analysis,
                                double qoi_tolerance,
                                const tensor::Tensor& sample_batch,
                                int64_t flops_per_sample,
                                int64_t bytes_per_sample,
                                const AutoTuneConfig& config);

}  // namespace core
}  // namespace errorflow

#endif  // ERRORFLOW_CORE_AUTO_TUNER_H_
