#include "nn/serialize.h"

#include <cstring>
#include <fstream>

#include "nn/activation.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pool.h"
#include "nn/residual.h"
#include "util/bytes.h"
#include "util/string_util.h"

namespace errorflow {
namespace nn {

namespace {

constexpr char kMagic[4] = {'E', 'F', 'M', '1'};

// Tags 5 (AvgPool2d) and 7 (Flatten) are retired: they load as an unknown
// tag.
enum LayerTag : uint8_t {
  kTagDense = 1,
  kTagConv2d = 2,
  kTagActivation = 3,
  kTagResidual = 4,
  kTagGlobalAvgPool = 6,
};

// A tensor is its rank (i64), each dimension (i64), then its fp32 values.
void PutTensor(const Tensor& t, util::ByteWriter* w) {
  w->PutI64(t.ndim());
  for (int64_t d : t.shape()) w->PutI64(d);
  w->Raw(t.data(), static_cast<size_t>(t.size()) * sizeof(float));
}

Result<Tensor> GetTensor(util::ByteReader* r) {
  EF_ASSIGN_OR_RETURN(int64_t ndim, r->GetI64());
  if (ndim < 0 || ndim > 8) return Status::Corruption("bad tensor rank");
  const util::DecodeLimits& limits = util::DecodeLimits::Default();
  tensor::Shape shape;
  // Per-dimension checked product: individually in-range dims can still
  // overflow 64 bits when multiplied (e.g. [2^28, 2^28, 256] wraps to 0),
  // which would silently size the buffer read below.
  uint64_t n = 1;
  for (int64_t i = 0; i < ndim; ++i) {
    EF_ASSIGN_OR_RETURN(int64_t d, r->GetI64());
    if (d < 0 || d > (1 << 28)) {
      return Status::Corruption("tensor dimension out of range");
    }
    if (!util::CheckedMul(n, static_cast<uint64_t>(d), &n) ||
        n > limits.max_elements) {
      return Status::Corruption("tensor element count overflow");
    }
    shape.push_back(d);
  }
  uint64_t byte_count = 0;
  if (!util::CheckedMul(n, sizeof(float), &byte_count)) {
    return Status::Corruption("tensor byte count overflow");
  }
  EF_RETURN_IF_ERROR(limits.CheckAlloc(byte_count, "tensor payload"));
  // Checked against the bytes left before the vector is sized, so a
  // truncated payload never authorizes the allocation.
  if (byte_count > r->remaining()) {
    return Status::Corruption("model buffer truncated");
  }
  std::vector<float> values(static_cast<size_t>(n));
  EF_RETURN_IF_ERROR(r->GetRaw(values.data(), byte_count));
  return Tensor(std::move(shape), std::move(values));
}

void WriteLayer(const Layer* layer, util::ByteWriter* w);

void WriteLayerList(const std::vector<std::unique_ptr<Layer>>& layers,
                    util::ByteWriter* w) {
  w->PutI64(static_cast<int64_t>(layers.size()));
  for (const auto& l : layers) WriteLayer(l.get(), w);
}

void WriteLayer(const Layer* layer, util::ByteWriter* w) {
  switch (layer->kind()) {
    case LayerKind::kDense: {
      const auto* d = static_cast<const DenseLayer*>(layer);
      w->PutU8(kTagDense);
      w->PutI64(d->in_features());
      w->PutI64(d->out_features());
      w->PutU8(d->use_psn() ? 1 : 0);
      w->PutF32(d->alpha());
      PutTensor(d->weight(), w);
      PutTensor(d->bias(), w);
      return;
    }
    case LayerKind::kConv2d: {
      const auto* c = static_cast<const Conv2dLayer*>(layer);
      w->PutU8(kTagConv2d);
      w->PutI64(c->in_channels());
      w->PutI64(c->out_channels());
      w->PutI64(c->kernel());
      w->PutI64(c->stride());
      w->PutI64(c->padding());
      w->PutU8(c->use_psn() ? 1 : 0);
      w->PutF32(c->alpha());
      PutTensor(c->weight(), w);
      PutTensor(c->bias(), w);
      return;
    }
    case LayerKind::kActivation: {
      const auto* a = static_cast<const ActivationLayer*>(layer);
      w->PutU8(kTagActivation);
      w->PutU8(static_cast<uint8_t>(a->activation_kind()));
      w->PutF32(a->slope());
      return;
    }
    case LayerKind::kResidualBlock: {
      const auto* b = static_cast<const ResidualBlock*>(layer);
      w->PutU8(kTagResidual);
      WriteLayerList(b->body(), w);
      w->PutU8(b->shortcut() != nullptr ? 1 : 0);
      if (b->shortcut() != nullptr) WriteLayer(b->shortcut(), w);
      const auto* post =
          dynamic_cast<const ActivationLayer*>(b->post_activation());
      w->PutU8(post != nullptr ? 1 : 0);
      w->PutU8(static_cast<uint8_t>(
          post != nullptr ? post->activation_kind() : ActivationKind::kReLU));
      return;
    }
    case LayerKind::kGlobalAvgPool:
      w->PutU8(kTagGlobalAvgPool);
      return;
  }
  EF_CHECK(false);
}

Result<std::unique_ptr<Layer>> ReadLayer(util::ByteReader* r);

Result<std::vector<std::unique_ptr<Layer>>> ReadLayerList(util::ByteReader* r) {
  EF_ASSIGN_OR_RETURN(int64_t count, r->GetI64());
  if (count < 0 || count > 100000) {
    return Status::Corruption("bad layer count");
  }
  std::vector<std::unique_ptr<Layer>> layers;
  for (int64_t i = 0; i < count; ++i) {
    EF_ASSIGN_OR_RETURN(auto l, ReadLayer(r));
    layers.push_back(std::move(l));
  }
  return layers;
}

// Reads an activation-kind byte; any value that is not an enumerator
// (including the retired kinds 1, 4 and 5) is corruption, so layers never
// hold a kind their dispatch does not know.
Result<ActivationKind> GetActivationKind(util::ByteReader* r) {
  EF_ASSIGN_OR_RETURN(uint8_t kind, r->GetU8());
  switch (static_cast<ActivationKind>(kind)) {
    case ActivationKind::kReLU:
    case ActivationKind::kPReLU:
    case ActivationKind::kTanh:
      return static_cast<ActivationKind>(kind);
  }
  return Status::Corruption(
      util::StrFormat("unknown activation kind %d", kind));
}

// Upper bound on any single layer dimension read from a (possibly
// corrupted) buffer — prevents attacker/bitflip-controlled allocations.
constexpr int64_t kMaxLayerDim = 1 << 24;

Result<std::unique_ptr<Layer>> ReadLayer(util::ByteReader* r) {
  EF_ASSIGN_OR_RETURN(uint8_t tag, r->GetU8());
  switch (tag) {
    case kTagDense: {
      EF_ASSIGN_OR_RETURN(int64_t in, r->GetI64());
      EF_ASSIGN_OR_RETURN(int64_t out, r->GetI64());
      if (in <= 0 || out <= 0 || in > kMaxLayerDim || out > kMaxLayerDim) {
        return Status::Corruption("dense dims out of range");
      }
      EF_ASSIGN_OR_RETURN(uint8_t psn, r->GetU8());
      EF_ASSIGN_OR_RETURN(float alpha, r->GetF32());
      EF_ASSIGN_OR_RETURN(Tensor weight, GetTensor(r));
      EF_ASSIGN_OR_RETURN(Tensor bias, GetTensor(r));
      // Shapes first: the constructor allocates weight and gradient
      // buffers from the header dims, which only a matching payload makes
      // trustworthy.
      if (weight.shape() != tensor::Shape{out, in} ||
          bias.shape() != tensor::Shape{out}) {
        return Status::Corruption("dense weight shape mismatch");
      }
      auto d = std::make_unique<DenseLayer>(in, out, psn != 0);
      d->mutable_weight() = std::move(weight);
      d->mutable_bias() = std::move(bias);
      d->set_alpha(alpha);
      return std::unique_ptr<Layer>(std::move(d));
    }
    case kTagConv2d: {
      EF_ASSIGN_OR_RETURN(int64_t in, r->GetI64());
      EF_ASSIGN_OR_RETURN(int64_t out, r->GetI64());
      EF_ASSIGN_OR_RETURN(int64_t k, r->GetI64());
      EF_ASSIGN_OR_RETURN(int64_t s, r->GetI64());
      EF_ASSIGN_OR_RETURN(int64_t p, r->GetI64());
      if (in <= 0 || out <= 0 || in > kMaxLayerDim || out > kMaxLayerDim ||
          k <= 0 || k > 1024 || s <= 0 || s > 1024 || p < 0 || p > 1024) {
        return Status::Corruption("conv params out of range");
      }
      EF_ASSIGN_OR_RETURN(uint8_t psn, r->GetU8());
      EF_ASSIGN_OR_RETURN(float alpha, r->GetF32());
      EF_ASSIGN_OR_RETURN(Tensor weight, GetTensor(r));
      EF_ASSIGN_OR_RETURN(Tensor bias, GetTensor(r));
      if (weight.shape() != tensor::Shape{out, in * k * k} ||
          bias.shape() != tensor::Shape{out}) {
        return Status::Corruption("conv weight shape mismatch");
      }
      auto c = std::make_unique<Conv2dLayer>(in, out, static_cast<int>(k),
                                             static_cast<int>(s),
                                             static_cast<int>(p), psn != 0);
      c->mutable_weight() = std::move(weight);
      c->mutable_bias() = std::move(bias);
      c->set_alpha(alpha);
      return std::unique_ptr<Layer>(std::move(c));
    }
    case kTagActivation: {
      EF_ASSIGN_OR_RETURN(ActivationKind kind, GetActivationKind(r));
      EF_ASSIGN_OR_RETURN(float slope, r->GetF32());
      return std::unique_ptr<Layer>(
          std::make_unique<ActivationLayer>(kind, slope));
    }
    case kTagResidual: {
      EF_ASSIGN_OR_RETURN(auto body, ReadLayerList(r));
      EF_ASSIGN_OR_RETURN(uint8_t has_shortcut, r->GetU8());
      std::unique_ptr<Layer> shortcut;
      if (has_shortcut != 0) {
        EF_ASSIGN_OR_RETURN(shortcut, ReadLayer(r));
      }
      EF_ASSIGN_OR_RETURN(uint8_t has_post, r->GetU8());
      std::unique_ptr<Layer> post;
      EF_ASSIGN_OR_RETURN(ActivationKind post_kind, GetActivationKind(r));
      if (has_post != 0) post = std::make_unique<ActivationLayer>(post_kind);
      return std::unique_ptr<Layer>(std::make_unique<ResidualBlock>(
          std::move(body), std::move(shortcut), std::move(post)));
    }
    case kTagGlobalAvgPool:
      return std::unique_ptr<Layer>(std::make_unique<GlobalAvgPoolLayer>());
    default:
      return Status::Corruption(
          util::StrFormat("unknown layer tag %d", tag));
  }
}

}  // namespace

std::string SerializeModel(const Model& model) {
  util::ByteWriter w;
  w.Raw(kMagic, sizeof(kMagic));
  // The 8-byte length prefix reads the same as the i64 it always was.
  w.PutBytes(model.name());
  WriteLayerList(model.layers(), &w);
  return w.Finish();
}

Result<Model> DeserializeModel(const std::string& buffer) {
  if (buffer.size() < 4 || std::memcmp(buffer.data(), kMagic, 4) != 0) {
    return Status::Corruption("bad model magic");
  }
  util::ByteReader r(buffer.data() + 4, buffer.size() - 4);
  // A negative length reads as a u64 beyond the buffer and is rejected.
  EF_ASSIGN_OR_RETURN(std::string name, r.GetBytes());
  EF_ASSIGN_OR_RETURN(auto layers, ReadLayerList(&r));
  Model model(name);
  for (auto& l : layers) model.Add(std::move(l));
  return model;
}

Status SaveModel(const Model& model, const std::string& path) {
  const std::string buf = SerializeModel(model);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) {
    return Status::IOError("cannot open for write: " + path);
  }
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  out.close();
  if (!out.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<Model> LoadModel(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return Status::IOError("cannot open for read: " + path);
  std::string buf((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  return DeserializeModel(buf);
}

}  // namespace nn
}  // namespace errorflow
