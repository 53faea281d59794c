#ifndef ERRORFLOW_DATA_DATASET_H_
#define ERRORFLOW_DATA_DATASET_H_

#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace errorflow {
namespace data {

using tensor::Tensor;

/// \brief A supervised dataset: inputs (samples x features, or samples x
/// C x H x W for imagery) and targets (samples x outputs for regression,
/// rank-1 class indices for classification).
struct Dataset {
  std::string name;
  Tensor inputs;
  Tensor targets;
  std::vector<std::string> input_names;
  std::vector<std::string> target_names;

  int64_t size() const { return inputs.ndim() > 0 ? inputs.dim(0) : 0; }
};

/// \brief Per-feature affine map onto [-1, 1], the preprocessing the
/// paper's error analysis assumes (Sec. III-B: inputs normalized so
/// ||h^(0)||_2 <= sqrt(n0)).
class Normalizer {
 public:
  /// Fits min/max per trailing feature of a rank-2 tensor, or per channel
  /// of a rank-4 tensor.
  static Normalizer Fit(const Tensor& data);

  /// Maps into [-1, 1] (values at fitted min/max map to -1/+1; constant
  /// features map to 0).
  Tensor Apply(const Tensor& data) const;

  const std::vector<float>& mins() const { return mins_; }
  const std::vector<float>& maxs() const { return maxs_; }

 private:
  std::vector<float> mins_;
  std::vector<float> maxs_;
  bool per_channel_ = false;  // rank-4 inputs normalize per channel.
};

/// Splits the first `head` samples into one dataset and the rest into
/// another (deterministic; shuffle upstream if needed).
void SplitDataset(const Dataset& all, int64_t head, Dataset* first,
                  Dataset* second);

}  // namespace data
}  // namespace errorflow

#endif  // ERRORFLOW_DATA_DATASET_H_
