#ifndef ERRORFLOW_QUANT_HARDWARE_MODEL_H_
#define ERRORFLOW_QUANT_HARDWARE_MODEL_H_

#include <cstdint>

#include "quant/format.h"

namespace errorflow {
namespace quant {

/// \brief The paper's modeled GPU: a constant table, not a setting.
///
/// The paper measures model-execution throughput on an RTX 3080 Ti
/// (Figs. 2, 9, 10-15). Tensor-core hardware is not available here, so —
/// per the substitution documented in DESIGN.md — execution time is modeled
/// as
///
///   time(format) = flops_per_sample / (1.2e13 MAC/s *
///                                      ModeledSpeedup(format))
///
/// with the FP32 base rate and the per-format speedups calibrated to the
/// paper's RTX 3080 Ti observations: FP16 up to 4.5x (Sec. IV-C), INT8
/// comparable-or-better, TF32/BF16 "little speedup". Achieved *errors* are
/// never modeled — those are bit-exact; only wall-clock execution speed is.
///
/// Returns the per-format speedup relative to FP32: TF32 1.25, FP16 4.5,
/// BF16 1.35, INT8 5.2.
double ModeledSpeedup(NumericFormat format);

/// \brief Execution-throughput estimator for a model on the modeled GPU.
class ExecutionModel {
 public:
  /// `flops_per_sample` from Model::FlopsPerSample;
  /// `bytes_per_sample` the FP32 input payload per sample.
  ExecutionModel(int64_t flops_per_sample, int64_t bytes_per_sample);

  /// Seconds to execute one sample at the given precision.
  double SecondsPerSample(NumericFormat format) const;

  /// Samples per second at the given precision.
  double SamplesPerSecond(NumericFormat format) const;

  /// Data-ingestion throughput in bytes of (uncompressed) input consumed
  /// per second when execution runs at the given precision — the y-axis of
  /// Fig. 9.
  double IngestBytesPerSecond(NumericFormat format) const;

 private:
  int64_t flops_per_sample_;
  int64_t bytes_per_sample_;
};

}  // namespace quant
}  // namespace errorflow

#endif  // ERRORFLOW_QUANT_HARDWARE_MODEL_H_
