#include "quant/hardware_model.h"

#include "util/macros.h"

namespace errorflow {
namespace quant {

namespace {

// Sustained FP32 MLP/conv throughput of the modeled RTX 3080 Ti, in
// multiply-accumulates per second.
constexpr double kModeledFp32FlopsPerSec = 1.2e13;

}  // namespace

double ModeledSpeedup(NumericFormat format) {
  switch (format) {
    case NumericFormat::kFP32:
      return 1.0;
    case NumericFormat::kTF32:
      return 1.25;
    case NumericFormat::kFP16:
      return 4.5;
    case NumericFormat::kBF16:
      return 1.35;
    case NumericFormat::kINT8:
      return 5.2;
  }
  return 1.0;
}

ExecutionModel::ExecutionModel(int64_t flops_per_sample,
                               int64_t bytes_per_sample)
    : flops_per_sample_(flops_per_sample),
      bytes_per_sample_(bytes_per_sample) {
  EF_CHECK(flops_per_sample > 0 && bytes_per_sample > 0);
}

double ExecutionModel::SecondsPerSample(NumericFormat format) const {
  return static_cast<double>(flops_per_sample_) /
         (kModeledFp32FlopsPerSec * ModeledSpeedup(format));
}

double ExecutionModel::SamplesPerSecond(NumericFormat format) const {
  return 1.0 / SecondsPerSample(format);
}

double ExecutionModel::IngestBytesPerSecond(NumericFormat format) const {
  return SamplesPerSecond(format) * static_cast<double>(bytes_per_sample_);
}

}  // namespace quant
}  // namespace errorflow
