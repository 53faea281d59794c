#include "nn/model.h"

#include <utility>

#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/residual.h"

namespace errorflow {
namespace nn {

namespace {

void VisitRecursive(Layer* layer, const std::function<void(Layer*)>& fn) {
  fn(layer);
  if (auto* block = dynamic_cast<ResidualBlock*>(layer)) {
    for (auto& l : block->mutable_body()) VisitRecursive(l.get(), fn);
    if (block->mutable_shortcut() != nullptr) {
      VisitRecursive(block->mutable_shortcut(), fn);
    }
  }
}

// FLOPs (multiply-accumulates) for a single layer given its input shape;
// returns the output shape through `shape`.
int64_t LayerFlops(const Layer* layer, Shape* shape) {
  const Shape in = *shape;
  *shape = layer->OutputShape(in);
  if (const auto* d = dynamic_cast<const DenseLayer*>(layer)) {
    return d->in_features() * d->out_features();
  }
  if (const auto* c = dynamic_cast<const Conv2dLayer*>(layer)) {
    const Shape out = *shape;
    return out[1] * out[2] * out[3] * c->in_channels() * c->kernel() *
           c->kernel();
  }
  if (const auto* b = dynamic_cast<const ResidualBlock*>(layer)) {
    int64_t flops = 0;
    Shape s = in;
    for (const auto& l : b->body()) flops += LayerFlops(l.get(), &s);
    if (b->shortcut() != nullptr) {
      Shape ss = in;
      flops += LayerFlops(b->shortcut(), &ss);
    }
    return flops;
  }
  // Activations / pools: roughly one op per element; negligible next to
  // the matmuls but counted for completeness.
  int64_t n = 1;
  for (int64_t d : *shape) n *= d;
  return n;
}

}  // namespace

Layer* Model::Add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  return layers_.back().get();
}

void Model::Forward(const Tensor& input, Tensor* output, bool training) {
  EF_CHECK(!layers_.empty());
  // Inference: layer i < last writes the calling thread's output slot i,
  // allocated on first use and kept while that layer's output shape
  // repeats, and the last layer writes *output; the input is read in
  // place. The slots are per thread, not per model, because serving runs
  // one model on several workers at once; no layer's forward runs a model
  // forward itself, so one thread never needs two sets of slots.
  if (!training) {
    thread_local std::vector<Tensor> slots;
    const size_t last = layers_.size() - 1;
    if (slots.size() < last + 1) slots.resize(last + 1);
    const Tensor* cur = &input;
    for (size_t i = 0; i < last; ++i) {
      layers_[i]->Forward(*cur, &slots[i], /*training=*/false);
      cur = &slots[i];
    }
    if (cur == output) {
      // A one-layer model run in place, Forward(x, &x).
      layers_[last]->Forward(*cur, &slots[last], /*training=*/false);
      std::swap(*output, slots[last]);
    } else {
      layers_[last]->Forward(*cur, output, /*training=*/false);
    }
    return;
  }
  Tensor cur = input;
  Tensor next;
  for (auto& layer : layers_) {
    layer->Forward(cur, &next, training);
    cur = std::move(next);
    next = Tensor();
  }
  *output = std::move(cur);
}

Tensor Model::Predict(const Tensor& input) {
  Tensor out;
  Forward(input, &out, /*training=*/false);
  return out;
}

void Model::Backward(const Tensor& grad_output, Tensor* grad_input) {
  Tensor g = grad_output, gprev;
  for (size_t i = layers_.size(); i-- > 0;) {
    layers_[i]->Backward(g, &gprev);
    g = std::move(gprev);
    gprev = Tensor();
  }
  if (grad_input != nullptr) *grad_input = std::move(g);
}

std::vector<Param> Model::Params() {
  std::vector<Param> params;
  for (auto& layer : layers_) {
    for (Param& p : layer->Params()) params.push_back(p);
  }
  return params;
}

void Model::ZeroGrads() {
  for (Param& p : Params()) {
    if (p.grad != nullptr) p.grad->Fill(0.0f);
  }
}

int64_t Model::ParameterCount() {
  int64_t n = 0;
  for (const Param& p : Params()) n += p.value->size();
  return n;
}

Model Model::Clone() const {
  Model copy(name_);
  for (const auto& layer : layers_) copy.Add(layer->Clone());
  return copy;
}

void Model::FoldPsn() {
  VisitLayers([](Layer* layer) {
    if (auto* d = dynamic_cast<DenseLayer*>(layer)) d->FoldPsn();
    if (auto* c = dynamic_cast<Conv2dLayer*>(layer)) c->FoldPsn();
  });
}

void Model::VisitLayers(const std::function<void(Layer*)>& fn) {
  for (auto& layer : layers_) VisitRecursive(layer.get(), fn);
}

int64_t Model::FlopsPerSample(const Shape& single_input_shape) const {
  Shape s = single_input_shape;
  if (!s.empty()) s[0] = 1;
  int64_t flops = 0;
  for (const auto& layer : layers_) flops += LayerFlops(layer.get(), &s);
  return flops;
}

}  // namespace nn
}  // namespace errorflow
