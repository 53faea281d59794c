#include "core/spectral_profile.h"

#include <cmath>

#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/residual.h"
#include "tensor/norms.h"
#include "util/macros.h"

namespace errorflow {
namespace core {

namespace {

using nn::Layer;
using nn::LayerKind;
using tensor::Shape;

int64_t FlatSize(const Shape& s) {
  int64_t n = 1;
  for (size_t i = 1; i < s.size(); ++i) n *= s[i];
  return n;
}

LayerProfile ProfileDense(const nn::DenseLayer& d) {
  LayerProfile p;
  p.name = d.ToString();
  p.sigma = d.SpectralNorm();
  p.n_in = d.in_features();
  p.n_out = d.out_features();
  p.weight = d.EffectiveWeight();
  p.noise_sqrt = std::sqrt(static_cast<double>(p.n_out));
  p.sigma_pert_sqrt =
      std::sqrt(static_cast<double>(std::min(p.n_in, p.n_out)));
  return p;
}

LayerProfile ProfileConv(const nn::Conv2dLayer& c, const Shape& in_shape) {
  LayerProfile p;
  p.name = c.ToString();
  EF_CHECK(in_shape.size() == 4);
  p.sigma = c.OperatorNorm(in_shape[2], in_shape[3]);
  const Shape out_shape = c.OutputShape(in_shape);
  p.n_in = FlatSize(in_shape);
  p.n_out = FlatSize(out_shape);
  p.weight = c.EffectiveWeight();
  const double k = c.kernel();
  p.noise_sqrt = k * std::sqrt(static_cast<double>(c.out_channels()));
  p.sigma_pert_sqrt =
      k * std::sqrt(static_cast<double>(
              std::min<int64_t>(c.in_channels() * c.kernel() * c.kernel(),
                                c.out_channels())));
  return p;
}

// Profiles a flat list of layers into its linear layers. Activations have
// derivative bound C = 1 (nn/activation.h) and global average pooling is a
// contraction, so both pass error through with gain 1 and only change the
// shape. Updates `shape` through every layer.
void ProfileChain(const std::vector<std::unique_ptr<Layer>>& layers,
                  Shape* shape, std::vector<LayerProfile>* out,
                  std::vector<BlockProfile>* blocks);

BlockProfile ProfileResidual(const nn::ResidualBlock& block, Shape* shape) {
  BlockProfile bp;
  bp.is_residual = true;
  const Shape in_shape = *shape;
  std::vector<BlockProfile> nested;  // Nested residuals not supported.
  ProfileChain(block.body(), shape, &bp.body, &nested);
  EF_CHECK(nested.empty() && "nested residual blocks are not supported");
  if (block.shortcut() != nullptr) {
    bp.has_projection = true;
    if (const auto* d =
            dynamic_cast<const nn::DenseLayer*>(block.shortcut())) {
      bp.shortcut = ProfileDense(*d);
    } else if (const auto* c = dynamic_cast<const nn::Conv2dLayer*>(
                   block.shortcut())) {
      bp.shortcut = ProfileConv(*c, in_shape);
    } else {
      EF_CHECK(false && "unsupported shortcut layer");
    }
  }
  return bp;
}

void ProfileChain(const std::vector<std::unique_ptr<Layer>>& layers,
                  Shape* shape, std::vector<LayerProfile>* out,
                  std::vector<BlockProfile>* blocks) {
  for (const auto& layer : layers) {
    switch (layer->kind()) {
      case LayerKind::kDense: {
        out->push_back(
            ProfileDense(*static_cast<const nn::DenseLayer*>(layer.get())));
        break;
      }
      case LayerKind::kConv2d: {
        out->push_back(ProfileConv(
            *static_cast<const nn::Conv2dLayer*>(layer.get()), *shape));
        break;
      }
      case LayerKind::kResidualBlock: {
        EF_CHECK(blocks != nullptr &&
                 "residual block inside a residual body");
        // Flush any pending plain chain as its own block.
        if (!out->empty()) {
          BlockProfile plain;
          plain.is_residual = false;
          plain.body = std::move(*out);
          out->clear();
          blocks->push_back(std::move(plain));
        }
        blocks->push_back(ProfileResidual(
            *static_cast<const nn::ResidualBlock*>(layer.get()), shape));
        // ProfileResidual advanced the body shape; nothing more to do.
        continue;  // Shape already updated inside.
      }
      case LayerKind::kActivation:
      case LayerKind::kGlobalAvgPool:
        break;
    }
    *shape = layer->OutputShape(*shape);
  }
}

}  // namespace

ModelProfile ProfileModel(const nn::Model& model,
                          const Shape& single_input_shape) {
  // Work on a folded clone so PSN layers expose plain weights.
  nn::Model folded = model.Clone();
  folded.FoldPsn();

  ModelProfile profile;
  profile.model_name = model.name();
  profile.n0 = FlatSize(single_input_shape);

  Shape shape = single_input_shape;
  std::vector<LayerProfile> pending;
  ProfileChain(folded.layers(), &shape, &pending, &profile.blocks);
  if (!pending.empty()) {
    BlockProfile plain;
    plain.is_residual = false;
    plain.body = std::move(pending);
    profile.blocks.push_back(std::move(plain));
  }
  profile.n_out = FlatSize(shape);

  // Per-feature row norms of the final linear layer, if the model ends
  // with a plain chain whose last layer is dense-like.
  if (!profile.blocks.empty()) {
    const BlockProfile& last = profile.blocks.back();
    if (!last.is_residual && !last.body.empty()) {
      const LayerProfile& lp = last.body.back();
      if (lp.weight.ndim() == 2 && lp.weight.dim(0) == profile.n_out) {
        for (int64_t r = 0; r < lp.weight.dim(0); ++r) {
          double acc = 0.0;
          for (int64_t c = 0; c < lp.weight.dim(1); ++c) {
            const double v = lp.weight.at(r, c);
            acc += v * v;
          }
          profile.final_row_norms.push_back(std::sqrt(acc));
        }
      }
    }
  }
  return profile;
}

}  // namespace core
}  // namespace errorflow
