#ifndef ERRORFLOW_CORE_ERROR_BOUND_H_
#define ERRORFLOW_CORE_ERROR_BOUND_H_

#include <array>
#include <vector>

#include "core/spectral_profile.h"
#include "quant/format.h"
#include "tensor/norms.h"

namespace errorflow {
namespace core {

using quant::NumericFormat;
using tensor::Norm;

/// \brief One linear layer's row in the error-budget ledger produced by
/// ErrorFlowAnalysis::Attribution(): where that layer's quantization noise
/// ends up in the composed bound, plus the spectral quantities that
/// amplified it.
struct LayerAttribution {
  /// Profile name of the layer.
  std::string layer;
  /// Traversal index, identical to the steps-vector numbering (plain
  /// chains in network order; residual bodies first, then the projection
  /// shortcut).
  int64_t index = 0;
  /// Plain spectral norm sigma_l.
  double sigma = 0.0;
  /// Quantized proxy sigma~_l = sigma_l + q_l sqrt(min(n_in,n_out))/sqrt 3:
  /// the multiplicative amplification applied to anything flowing through
  /// this layer (the activation after it has C = 1).
  double quantized_sigma = 0.0;
  /// Step size q_l under the attributed steps.
  double step_size = 0.0;
  /// Exact additive share of the composed quantization term contributed by
  /// this layer's rounding noise, after amplification by every downstream
  /// layer. Shares over all layers sum to QuantTerm() (fp roundoff aside).
  double quant_share = 0.0;
};

/// \brief Exact per-source decomposition of the composed Eq. (3)/(5) bound:
/// the admission scalar as an inspectable ledger. The flow recursion is
/// linear in the error component, so the input-error term and each layer's
/// noise injection can be propagated separately; by construction
///
///     total == compression_term + sum_l layers[l].quant_share == Bound().
struct BoundAttribution {
  /// Input error after conversion to L2 (the norm the flow runs in).
  double input_err_l2 = 0.0;
  /// Composed amplification of the input error (Gain(format)).
  double gain = 0.0;
  /// gain * input_err_l2: the compression-input share of the bound.
  double compression_term = 0.0;
  /// Sum of the per-layer quantization shares (== QuantTerm()).
  double quant_term = 0.0;
  /// compression_term + quant_term (== Bound(input_err, norm, format)).
  double total = 0.0;
  /// One row per linear layer in traversal order.
  std::vector<LayerAttribution> layers;
};

/// \brief One priced variant: a weight format, the quantizer that
/// materializes it, and its Eq. 3 quantization term (the bound at zero
/// input error). The planner ranks these; it never re-prices them.
struct PricedVariant {
  NumericFormat format = NumericFormat::kFP32;
  quant::WeightQuantizer quantizer = quant::WeightQuantizer::kMaxAffine;
  double quant_term = 0.0;
};

/// \brief The paper's error-flow analysis (Sec. III): given a model's
/// spectral profile, predicts an upper bound on the QoI error when the
/// input carries a compression error and the weights are quantized.
///
/// The bound is affine in the input error:
///
///     ||Delta y|| <= Gain(format) * ||Delta x|| + QuantTerm(format)
///
/// computed by propagating a pair (E, H) through the network, where E
/// bounds the error norm and H bounds the activation norm of the noisy
/// network (H_0 = sqrt(n0), inputs normalized to [-1, 1]):
///
///   linear layer l:  E <- sigma~_l E + q_l sqrt(n_l) / (2 sqrt(3)) * H
///                    H <- sigma~_l H
///   activation:      (E, H) unchanged (C = 1 for every kind,
///                    nn/activation.h)
///   residual block:  (E, H) <- (E_body + E_shortcut, H_body + H_shortcut)
///
/// with sigma~_l = sigma_l + q_l sqrt(min(n_{l-1}, n_l)) / sqrt(3) the
/// pre-quantization proxy for the quantized weight's spectral norm, and
/// q_l the Table-I average step size. For a single residual block or MLP
/// and FP32 weights (q_l = 0) this telescopes to exactly Inequality (3) of
/// the paper. For reduced formats it is >= the printed formula: sigma~,
/// not sigma, appears in the input gain and in the downstream products.
///
/// All bounds are computed in L2 and converted to Linf via the norm
/// equivalence of Sec. III-A.
///
/// Every format is priced once, at construction: its per-layer Table-I
/// steps, QuantTerm() and Gain() are cached, and the format overloads
/// below read that cache instead of re-deriving steps from the weights.
class ErrorFlowAnalysis {
 public:
  explicit ErrorFlowAnalysis(ModelProfile profile);

  const ModelProfile& profile() const { return profile_; }

  /// Table-I step of every linear layer under `format`, in traversal
  /// order (all zero for kFP32, the unquantized reference).
  const std::vector<double>& Steps(NumericFormat format) const {
    return Priced(format).steps;
  }

  /// The max-affine variant of each format in `formats`, priced from the
  /// cache, in the given order.
  std::vector<PricedVariant> Price(
      const std::vector<NumericFormat>& formats) const;

  /// Total amplification of the input error: sigma_s + prod sigma_l
  /// composed across blocks (the Eq. 5 compression gain). Uses quantized
  /// sigma proxies when `format != kFP32`.
  double Gain(NumericFormat format = NumericFormat::kFP32) const {
    return Priced(format).gain;
  }

  /// The input-independent quantization term of the bound (L2, absolute,
  /// on normalized outputs).
  double QuantTerm(NumericFormat format) const {
    return Priced(format).quant_term;
  }

  /// Upper bound on ||Delta y|| given ||Delta x||, both in `norm`.
  /// Linf input errors are converted via ||Dx||_2 <= sqrt(n0) ||Dx||_inf;
  /// the L2 output bound is itself a valid Linf bound.
  double Bound(double input_err, Norm norm, NumericFormat format) const;

  /// \name Custom per-layer quantization steps.
  ///
  /// Generalizes the format-based API for the measured steps of
  /// data-driven PTQ (quant::MaterializedModel::EffectiveSteps): `steps[i]`
  /// is the average quantization step of linear layer `i` in traversal
  /// order — plain chains in network order; residual blocks contribute
  /// their body layers first, then the projection shortcut. The length
  /// must equal LinearLayerCount() (EF_CHECK). With `steps == Steps(f)`
  /// each overload equals its format counterpart bit for bit.
  /// @{
  double QuantTerm(const std::vector<double>& steps) const;
  double Bound(double input_err, Norm norm,
               const std::vector<double>& steps) const;
  /// @}

  /// Per-feature variant: bounds |Delta y_k| by replacing the final
  /// layer's spectral norm with the L2 norm of its k-th row (requires the
  /// profile to expose final_row_norms).
  double PerFeatureBound(int64_t feature, double input_err, Norm norm,
                         NumericFormat format) const;

  /// Largest input error (in `norm`) whose predicted bound stays within
  /// `qoi_tolerance`; 0 when the quantization term alone exceeds it.
  double MaxInputError(double qoi_tolerance, Norm norm,
                       NumericFormat format) const;

  /// Number of linear layers in traversal order (shortcuts included).
  int64_t LinearLayerCount() const { return layer_count_; }

  /// The linear layers in traversal order, as views into profile().
  std::vector<const LayerProfile*> LinearLayers() const;

  /// \name Error-budget provenance.
  /// @{

  /// Per-layer decomposition of Bound(input_err, norm, format): each
  /// layer's exact additive share of the quantization term plus the
  /// compression-input term. See BoundAttribution for the invariants.
  BoundAttribution Attribution(double input_err, Norm norm,
                               NumericFormat format) const;

  /// Attribution over explicit per-layer steps in traversal order
  /// (data-driven effective steps); reduces to the overload above for
  /// Steps(format).
  BoundAttribution Attribution(double input_err, Norm norm,
                               const std::vector<double>& steps) const;
  /// @}

 private:
  struct FlowState {
    double error = 0.0;
    double act_norm = 0.0;
    /// Attribution tracking (empty in the common case): slot 0 is the
    /// input-error share, slot 1 + l is linear layer l's quantization
    /// share. Invariant whenever non-empty: error == sum(contribs).
    std::vector<double> contribs;
  };

  // One format's cached pricing.
  struct FormatPricing {
    std::vector<double> steps;
    double quant_term = 0.0;
    double gain = 0.0;
  };

  const FormatPricing& Priced(NumericFormat format) const {
    return pricing_[static_cast<size_t>(format)];
  }

  // Propagates (E, H) through one block; `layer_counter` tracks the
  // traversal index into `steps`. A non-negative `final_row_norm` makes
  // the model's final layer a single output row with that norm
  // (PerFeatureBound).
  FlowState FlowBlock(const BlockProfile& block, FlowState in,
                      const std::vector<double>& steps,
                      int64_t* layer_counter, double final_row_norm,
                      bool is_last_block) const;

  // Runs the full flow with the given initial state; the one place that
  // checks `steps` has LinearLayerCount() entries.
  FlowState Flow(FlowState state, const std::vector<double>& steps,
                 double final_row_norm = -1.0) const;

  // Input error converted to the L2 norm the flow runs in.
  double InputL2(double input_err, Norm norm) const;

  ModelProfile profile_;
  int64_t layer_count_ = 0;
  std::array<FormatPricing, 5> pricing_;
};

/// Convenience: Table-I step size of a profiled layer under `format`.
double LayerStepSize(const LayerProfile& layer, NumericFormat format);

}  // namespace core
}  // namespace errorflow

#endif  // ERRORFLOW_CORE_ERROR_BOUND_H_
