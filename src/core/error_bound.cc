#include "core/error_bound.h"

#include <cmath>

#include "quant/step_size.h"
#include "util/macros.h"

namespace errorflow {
namespace core {

namespace {

constexpr double kInvSqrt3 = 0.5773502691896258;
constexpr double kInv2Sqrt3 = 0.2886751345948129;

}  // namespace

double LayerStepSize(const LayerProfile& layer, NumericFormat format) {
  if (format == NumericFormat::kFP32) return 0.0;
  return quant::AverageStepSize(layer.weight, format);
}

namespace {

// Fallbacks for hand-built profiles that only set dims.
double NoiseSqrt(const LayerProfile& layer) {
  return layer.noise_sqrt > 0.0
             ? layer.noise_sqrt
             : std::sqrt(static_cast<double>(layer.n_out));
}

// `n_out` is the layer's output width as the flow sees it (1 for a
// per-feature row).
double SigmaPertSqrt(const LayerProfile& layer, int64_t n_out) {
  return layer.sigma_pert_sqrt > 0.0
             ? layer.sigma_pert_sqrt
             : std::sqrt(static_cast<double>(std::min(layer.n_in, n_out)));
}

}  // namespace

ErrorFlowAnalysis::ErrorFlowAnalysis(ModelProfile profile)
    : profile_(std::move(profile)),
      layer_count_(static_cast<int64_t>(LinearLayers().size())) {
  const double h0 = std::sqrt(static_cast<double>(profile_.n0));
  const std::vector<const LayerProfile*> layers = LinearLayers();
  for (NumericFormat format : quant::AllFormats()) {
    FormatPricing& priced = pricing_[static_cast<size_t>(format)];
    for (const LayerProfile* layer : layers) {
      priced.steps.push_back(LayerStepSize(*layer, format));
    }
    priced.quant_term = format == NumericFormat::kFP32
                            ? 0.0
                            : Flow(FlowState{0.0, h0, {}}, priced.steps).error;
    // A unit input error with H = 0 (no quantization noise injection)
    // flows out as exactly the composed gain.
    priced.gain = Flow(FlowState{1.0, 0.0, {}}, priced.steps).error;
  }
}

std::vector<PricedVariant> ErrorFlowAnalysis::Price(
    const std::vector<NumericFormat>& formats) const {
  std::vector<PricedVariant> priced;
  priced.reserve(formats.size());
  for (NumericFormat format : formats) {
    priced.push_back({format, quant::WeightQuantizer::kMaxAffine,
                      QuantTerm(format)});
  }
  return priced;
}

std::vector<const LayerProfile*> ErrorFlowAnalysis::LinearLayers() const {
  std::vector<const LayerProfile*> layers;
  for (const BlockProfile& block : profile_.blocks) {
    for (const LayerProfile& layer : block.body) layers.push_back(&layer);
    if (block.is_residual && block.has_projection) {
      layers.push_back(&block.shortcut);
    }
  }
  return layers;
}

double ErrorFlowAnalysis::InputL2(double input_err, Norm norm) const {
  return norm == Norm::kLinf
             ? input_err * std::sqrt(static_cast<double>(profile_.n0))
             : input_err;
}

ErrorFlowAnalysis::FlowState ErrorFlowAnalysis::FlowBlock(
    const BlockProfile& block, FlowState in, const std::vector<double>& steps,
    int64_t* layer_counter, double final_row_norm, bool is_last_block) const {
  auto flow_linear = [&steps, layer_counter](const LayerProfile& layer,
                                             FlowState s,
                                             double row_norm) -> FlowState {
    // A per-feature row is one output wide, with the row's norm as sigma.
    const bool row = row_norm >= 0.0;
    const double sigma = row ? row_norm : layer.sigma;
    const double noise_sqrt = row ? 1.0 : NoiseSqrt(layer);
    const double pert_sqrt = SigmaPertSqrt(layer, row ? 1 : layer.n_out);
    const int64_t index = (*layer_counter)++;
    const double q = steps[static_cast<size_t>(index)];
    const double sigma_t = sigma + q * pert_sqrt * kInvSqrt3;
    const double injected = q * noise_sqrt * kInv2Sqrt3 * s.act_norm;
    FlowState out;
    out.error = sigma_t * s.error + injected;
    out.act_norm = sigma_t * s.act_norm;
    if (!s.contribs.empty()) {
      // The recursion is linear in the error component: scale every
      // tracked share by this layer's multiplier and credit the fresh
      // noise to this layer's slot. Keeps error == sum(contribs).
      out.contribs = std::move(s.contribs);
      for (double& c : out.contribs) c *= sigma_t;
      out.contribs[static_cast<size_t>(index) + 1] += injected;
    }
    return out;
  };

  FlowState body = in;
  for (size_t l = 0; l < block.body.size(); ++l) {
    const bool is_final_layer =
        is_last_block && !block.is_residual && l + 1 == block.body.size();
    body = flow_linear(block.body[l], body,
                       is_final_layer ? final_row_norm : -1.0);
  }
  if (!block.is_residual) return body;

  FlowState shortcut = in;
  if (block.has_projection) {
    shortcut = flow_linear(block.shortcut, in, -1.0);
  }
  FlowState out;
  out.error = body.error + shortcut.error;
  out.act_norm = body.act_norm + shortcut.act_norm;
  if (!body.contribs.empty()) {
    // Both paths flowed from the same tracked input, so their shares add
    // slot-by-slot, exactly like the scalar errors above.
    out.contribs = std::move(body.contribs);
    for (size_t i = 0; i < out.contribs.size(); ++i) {
      out.contribs[i] += shortcut.contribs[i];
    }
  }
  return out;
}

ErrorFlowAnalysis::FlowState ErrorFlowAnalysis::Flow(
    FlowState state, const std::vector<double>& steps,
    double final_row_norm) const {
  EF_CHECK(static_cast<int64_t>(steps.size()) == layer_count_);
  int64_t counter = 0;
  for (size_t b = 0; b < profile_.blocks.size(); ++b) {
    state = FlowBlock(profile_.blocks[b], std::move(state), steps, &counter,
                      final_row_norm, b + 1 == profile_.blocks.size());
  }
  return state;
}

double ErrorFlowAnalysis::QuantTerm(const std::vector<double>& steps) const {
  FlowState s{0.0, std::sqrt(static_cast<double>(profile_.n0)), {}};
  return Flow(s, steps).error;
}

double ErrorFlowAnalysis::Bound(double input_err, Norm norm,
                                NumericFormat format) const {
  return Bound(input_err, norm, Steps(format));
}

double ErrorFlowAnalysis::Bound(double input_err, Norm norm,
                                const std::vector<double>& steps) const {
  EF_CHECK(input_err >= 0.0);
  FlowState s{InputL2(input_err, norm),
              std::sqrt(static_cast<double>(profile_.n0)), {}};
  // The L2 output bound is also a valid Linf bound.
  return Flow(s, steps).error;
}

BoundAttribution ErrorFlowAnalysis::Attribution(double input_err, Norm norm,
                                                NumericFormat format) const {
  return Attribution(input_err, norm, Steps(format));
}

BoundAttribution ErrorFlowAnalysis::Attribution(
    double input_err, Norm norm, const std::vector<double>& steps) const {
  EF_CHECK(input_err >= 0.0);
  const double input_l2 = InputL2(input_err, norm);

  FlowState tracked{input_l2, std::sqrt(static_cast<double>(profile_.n0)),
                    {}};
  tracked.contribs.assign(static_cast<size_t>(layer_count_) + 1, 0.0);
  tracked.contribs[0] = input_l2;
  const FlowState out = Flow(std::move(tracked), steps);

  BoundAttribution attribution;
  attribution.input_err_l2 = input_l2;
  attribution.gain = Flow(FlowState{1.0, 0.0, {}}, steps).error;
  attribution.compression_term = out.contribs[0];

  // Rows in traversal order — the same numbering as the steps.
  const std::vector<const LayerProfile*> layers = LinearLayers();
  for (size_t i = 0; i < layers.size(); ++i) {
    const LayerProfile& layer = *layers[i];
    LayerAttribution row;
    row.layer = layer.name;
    row.index = static_cast<int64_t>(i);
    row.sigma = layer.sigma;
    row.step_size = steps[i];
    row.quantized_sigma =
        layer.sigma +
        row.step_size * SigmaPertSqrt(layer, layer.n_out) * kInvSqrt3;
    row.quant_share = out.contribs[i + 1];
    attribution.quant_term += row.quant_share;
    attribution.layers.push_back(std::move(row));
  }
  attribution.total = attribution.compression_term + attribution.quant_term;
  return attribution;
}

double ErrorFlowAnalysis::PerFeatureBound(int64_t feature, double input_err,
                                          Norm norm,
                                          NumericFormat format) const {
  EF_CHECK(feature >= 0 &&
           feature < static_cast<int64_t>(profile_.final_row_norms.size()));
  FlowState s{InputL2(input_err, norm),
              std::sqrt(static_cast<double>(profile_.n0)), {}};
  const double row_norm =
      profile_.final_row_norms[static_cast<size_t>(feature)];
  return Flow(s, Steps(format), row_norm).error;
}

double ErrorFlowAnalysis::MaxInputError(double qoi_tolerance, Norm norm,
                                        NumericFormat format) const {
  const double gain = Gain(format);
  const double quant = QuantTerm(format);
  if (gain <= 0.0) return 0.0;
  const double slack = qoi_tolerance - quant;
  if (slack <= 0.0) return 0.0;
  double input_l2 = slack / gain;
  if (norm == Norm::kLinf) {
    input_l2 /= std::sqrt(static_cast<double>(profile_.n0));
  }
  return input_l2;
}

}  // namespace core
}  // namespace errorflow
