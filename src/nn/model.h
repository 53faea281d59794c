#ifndef ERRORFLOW_NN_MODEL_H_
#define ERRORFLOW_NN_MODEL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace errorflow {
namespace nn {

/// \brief A feed-forward model: a sequence of layers (any of which may be a
/// ResidualBlock, giving ResNets).
///
/// The model owns its layers. It is the unit that the trainer optimizes,
/// the quantizer copies-and-rounds, and the error-flow profiler walks.
class Model {
 public:
  Model() = default;
  explicit Model(std::string name) : name_(std::move(name)) {}

  // Movable, not copyable (use Clone()).
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;
  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Appends a layer; returns a raw observer pointer for convenience.
  Layer* Add(std::unique_ptr<Layer> layer);

  const std::vector<std::unique_ptr<Layer>>& layers() const {
    return layers_;
  }
  std::vector<std::unique_ptr<Layer>>& mutable_layers() { return layers_; }

  /// Runs the model on a batch. `training=true` caches activations for a
  /// subsequent Backward. Inference reads `input` in place and writes the
  /// intermediate outputs into buffers of the calling thread that later
  /// calls reuse, so in steady state it allocates at most `*output`.
  /// `output` may be `&input`.
  void Forward(const Tensor& input, Tensor* output, bool training = false);

  /// Convenience inference wrapper.
  Tensor Predict(const Tensor& input);

  /// Backpropagates from the loss gradient w.r.t. the output, accumulating
  /// parameter gradients. `grad_input` may be null when unneeded.
  void Backward(const Tensor& grad_output, Tensor* grad_input = nullptr);

  /// All trainable parameters, in layer order.
  std::vector<Param> Params();

  /// Zeroes all gradients.
  void ZeroGrads();

  /// Total number of trainable scalars.
  int64_t ParameterCount();

  /// Deep copy (weights included).
  Model Clone() const;

  /// Bakes parameterized spectral normalization into plain weights in every
  /// Dense/Conv layer (recursing into residual blocks). Call after training,
  /// before profiling/quantization/serialization.
  void FoldPsn();

  /// Applies `fn` to every layer, recursing into residual blocks
  /// (body, shortcut, post-activation).
  void VisitLayers(const std::function<void(Layer*)>& fn);

  /// Multiply-accumulate count of one forward pass for a single sample with
  /// the given input shape (batch forced to 1). Used by the hardware model.
  int64_t FlopsPerSample(const Shape& single_input_shape) const;

 private:
  std::string name_;
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace nn
}  // namespace errorflow

#endif  // ERRORFLOW_NN_MODEL_H_
