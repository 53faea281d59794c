#ifndef ERRORFLOW_CORE_PIPELINE_H_
#define ERRORFLOW_CORE_PIPELINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compress/compressor.h"
#include "core/allocator.h"
#include "core/error_bound.h"
#include "io/sim_storage.h"
#include "nn/model.h"
#include "obs/metrics.h"
#include "quant/quantize_model.h"

namespace errorflow {
namespace core {

using tensor::Tensor;

/// \brief Configuration of an error-bounded inference pipeline (Fig. 1).
struct PipelineConfig {
  compress::Backend backend = compress::Backend::kSz;
  /// Entropy codec for newly written compressed streams.
  compress::CodecId codec = compress::kDefaultCodec;
  Norm norm = Norm::kLinf;
  /// Fraction of the QoI tolerance offered to quantization; 0 disables
  /// quantization.
  double quant_fraction = 0.5;
  io::StorageConfig storage;
};

/// \brief Measured + modeled outcome of one pipeline run.
struct PipelineReport {
  // Allocation decision.
  NumericFormat format = NumericFormat::kFP32;
  double input_tolerance = 0.0;
  double predicted_qoi_bound = 0.0;
  double quant_bound = 0.0;

  // Sizes.
  int64_t original_bytes = 0;
  int64_t compressed_bytes = 0;
  double compression_ratio = 0.0;

  // Phase timings, seconds. Compression and the storage write are measured
  // wall time; transfer is modeled (storage bandwidth); decompression is
  // measured for real; execution uses the calibrated hardware model. Each
  // value is also recorded into the process-global metrics registry as an
  // "errorflow.pipeline.<phase>_seconds" histogram.
  double compress_seconds = 0.0;
  double write_seconds = 0.0;
  double read_seconds = 0.0;
  double decompress_seconds = 0.0;
  double io_seconds = 0.0;
  double exec_seconds = 0.0;

  // Throughput in bytes of original (uncompressed) data per second.
  double io_throughput = 0.0;
  double exec_throughput = 0.0;
  /// min(io, exec): the phases overlap in an in-situ pipeline, so the
  /// slower one bounds the sustained rate (Fig. 10 right).
  double total_throughput = 0.0;

  // Achieved errors (absolute, on the normalized input/output spaces).
  double achieved_input_error = 0.0;
  double achieved_qoi_error = 0.0;
  /// Norm of the reference (full-precision, uncompressed) output; divide
  /// achieved/predicted by this for relative errors.
  double reference_qoi_norm = 0.0;

  /// Achieved QoI error relative to the per-sample reference norm
  /// (achieved_qoi_error / reference_qoi_norm); 0 when the reference norm
  /// is unknown or zero. Bench binaries use this instead of re-deriving
  /// the division.
  double RelativeQoIError() const;

  /// Rebuilds the aggregate phase/size/throughput view from the
  /// "errorflow.pipeline.*" metrics: phase seconds are histogram sums and
  /// byte counts are counter totals over every Run() since the last
  /// registry reset. Bench binaries use this instead of re-deriving the
  /// timing arithmetic per run.
  static PipelineReport AggregateFromRegistry(
      const obs::MetricsRegistry& registry = obs::MetricsRegistry::Global());

  /// Human-readable multi-line summary (sizes, phase seconds, throughput,
  /// errors) shared by the CLI and bench binaries.
  std::string Summary() const;
};

/// One evaluated (format, compression tolerance) candidate of
/// InferencePipeline::AutoTune.
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

/// \brief End-to-end error-bounded inference pipeline: compress -> store ->
/// read -> decompress -> quantized inference, with the tolerance split
/// chosen by the error-flow analysis.
///
/// The pipeline owns the model, its spectral profile, a per-format cache of
/// quantized clones, and the simulated storage tier.
class InferencePipeline {
 public:
  /// `model` must be trained; PSN is folded internally.
  /// `single_input_shape` as in ProfileModel ({1, features} or
  /// {1, C, H, W}).
  InferencePipeline(nn::Model model, tensor::Shape single_input_shape,
                    PipelineConfig config);

  /// The error-flow analysis over this model.
  const ErrorFlowAnalysis& analysis() const { return analysis_; }

  /// Allocation decision for a QoI tolerance, without running anything.
  AllocationPlan Plan(double qoi_tolerance) const;

  /// Runs the full pipeline on a batch under the QoI tolerance.
  /// InvalidArgument for a NaN or negative tolerance.
  Result<PipelineReport> Run(const Tensor& input_batch,
                             double qoi_tolerance);

  /// \brief The paper's Sec. IV-D observation — "allocating a fixed
  /// proportion of the total tolerance to quantization does not
  /// consistently yield an optimal strategy ... this highlights the need
  /// for an optimization algorithm to automate the determination of the
  /// optimal strategy" — implemented.
  ///
  /// Instead of config().quant_fraction, enumerates every format (the
  /// discrete axis), derives the compression tolerance each one leaves
  /// over (the continuous axis, closed-form from the affine bound),
  /// *measures* the resulting compression ratio and decompression speed on
  /// `sample_batch` with this pipeline's compressor and storage tier,
  /// models execution like Run(), and picks the format maximizing
  /// end-to-end throughput. FailedPrecondition when no format fits.
  Result<AutoTuneResult> AutoTune(double qoi_tolerance,
                                  const Tensor& sample_batch);

  /// Execution phase only: runs `batch` through the weight-quantized
  /// variant for `format`, materializing (and caching) the variant on
  /// first use, so repeated executions at the same format never
  /// re-quantize. Run() uses this path; serving leases its variants from
  /// serve::ModelRegistry::GetVariant instead.
  Result<Tensor> ExecuteQuantized(const Tensor& batch, NumericFormat format);

  /// Number of quantized variants materialized so far.
  int64_t quantized_variant_count() const {
    return static_cast<int64_t>(quantized_cache_.size());
  }

  const PipelineConfig& config() const { return config_; }
  nn::Model& model() { return model_; }

 private:
  /// Returns (caching) the weight-quantized clone for a format.
  nn::Model* QuantizedFor(NumericFormat format);

  nn::Model model_;
  tensor::Shape single_input_shape_;
  PipelineConfig config_;
  ErrorFlowAnalysis analysis_;
  std::unique_ptr<compress::Compressor> compressor_;
  io::SimulatedStorage storage_;
  std::map<NumericFormat, nn::Model> quantized_cache_;
  int64_t flops_per_sample_ = 0;
  int64_t bytes_per_sample_ = 0;
};

}  // namespace core
}  // namespace errorflow

#endif  // ERRORFLOW_CORE_PIPELINE_H_
