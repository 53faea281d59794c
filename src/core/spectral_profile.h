#ifndef ERRORFLOW_CORE_SPECTRAL_PROFILE_H_
#define ERRORFLOW_CORE_SPECTRAL_PROFILE_H_

#include <string>
#include <vector>

#include "nn/model.h"
#include "tensor/tensor.h"

namespace errorflow {
namespace core {

/// \brief Spectral description of one linear (weight) layer as the
/// error-flow analysis sees it.
struct LayerProfile {
  std::string name;
  /// Operator norm of the layer's effective weight: the matrix spectral
  /// norm for dense layers, the true convolution operator norm (power
  /// iteration over conv/conv^T at the profiled spatial size) for conv.
  double sigma = 0.0;
  /// Flattened input/output element counts (n_{l-1}, n_l in the paper).
  int64_t n_in = 0;
  int64_t n_out = 0;
  /// Copy of the weight tensor, used for Table-I step sizes.
  tensor::Tensor weight;
  /// sqrt-factor of the CLT quantization-noise term,
  /// ||DeltaW h|| <~ q * noise_sqrt / (2 sqrt 3) * ||h||.
  /// Dense: sqrt(n_out) (Eq. 3 verbatim). Conv: k * sqrt(out_channels) —
  /// each output element's noise inner product spans in_ch*k^2 shared
  /// weights, so the norm concentrates at k*sqrt(out_ch)*||h||, not
  /// sqrt(out_ch*oh*ow)*||h|| (our conv extension; the paper derives the
  /// dense case only).
  double noise_sqrt = 0.0;
  /// sqrt-factor of the quantized-spectral-norm proxy,
  /// sigma~ <= sigma + q * sigma_pert_sqrt / sqrt(3).
  /// Dense: sqrt(min(n_in, n_out)). Conv: k * sqrt(min(in_ch*k^2, out_ch))
  /// (operator norm of a conv is <= k * matrix norm of its kernel).
  double sigma_pert_sqrt = 0.0;
};

/// \brief One sequential stage of the model: either a plain chain of
/// linear layers (`is_residual == false`, shortcut ignored) or a residual
/// block `y = F(x) + W_s x`.
struct BlockProfile {
  bool is_residual = false;
  std::vector<LayerProfile> body;
  /// Residual blocks only: true when the shortcut is a projection; false
  /// means identity (sigma_s == 1). MLP-style plain chains have no
  /// shortcut at all (sigma_s == 0 in the paper's convention).
  bool has_projection = false;
  LayerProfile shortcut;  // Valid when has_projection.
};

/// \brief Full spectral profile of a model: everything Eq. (3) needs.
struct ModelProfile {
  std::string model_name;
  std::vector<BlockProfile> blocks;
  /// Flattened input dimension n_0 (single sample).
  int64_t n0 = 0;
  /// Flattened output dimension.
  int64_t n_out = 0;
  /// L2 norms of the rows of the final linear layer (for per-feature QoI
  /// bounds); empty when the final layer is not linear.
  std::vector<double> final_row_norms;
};

/// \brief Walks a trained model (PSN must be folded; the function folds a
/// clone defensively) and measures every layer's operator norm, producing
/// the profile consumed by `ErrorFlowAnalysis`.
///
/// `single_input_shape` carries the per-sample input shape with a leading
/// batch dim of 1, e.g. {1, 9} or {1, 13, 32, 32}; conv operator norms
/// depend on the spatial extent.
ModelProfile ProfileModel(const nn::Model& model,
                          const tensor::Shape& single_input_shape);

}  // namespace core
}  // namespace errorflow

#endif  // ERRORFLOW_CORE_SPECTRAL_PROFILE_H_
