#include "data/dataset.h"

#include <limits>

#include "util/macros.h"

namespace errorflow {
namespace data {

namespace {

// Feature count and per-feature stride layout of Apply.
struct Layout {
  int64_t features;    // Number of normalization groups.
  int64_t group_size;  // Contiguous elements per (sample, group).
  int64_t samples;
};

Layout GetLayout(const Tensor& data, bool per_channel) {
  Layout l;
  if (per_channel) {
    EF_CHECK(data.ndim() == 4);
    l.samples = data.dim(0);
    l.features = data.dim(1);
    l.group_size = data.dim(2) * data.dim(3);
  } else {
    EF_CHECK(data.ndim() == 2);
    l.samples = data.dim(0);
    l.features = data.dim(1);
    l.group_size = 1;
  }
  return l;
}

}  // namespace

Normalizer Normalizer::Fit(const Tensor& data) {
  Normalizer n;
  n.per_channel_ = data.ndim() == 4;
  const Layout l = GetLayout(data, n.per_channel_);
  n.mins_.assign(static_cast<size_t>(l.features),
                 std::numeric_limits<float>::max());
  n.maxs_.assign(static_cast<size_t>(l.features),
                 std::numeric_limits<float>::lowest());
  for (int64_t s = 0; s < l.samples; ++s) {
    for (int64_t f = 0; f < l.features; ++f) {
      const float* p =
          data.data() + (s * l.features + f) * l.group_size;
      for (int64_t g = 0; g < l.group_size; ++g) {
        n.mins_[static_cast<size_t>(f)] =
            std::min(n.mins_[static_cast<size_t>(f)], p[g]);
        n.maxs_[static_cast<size_t>(f)] =
            std::max(n.maxs_[static_cast<size_t>(f)], p[g]);
      }
    }
  }
  return n;
}

Tensor Normalizer::Apply(const Tensor& data) const {
  const Layout l = GetLayout(data, per_channel_);
  EF_CHECK(static_cast<size_t>(l.features) == mins_.size());
  Tensor out(data.shape());
  for (int64_t s = 0; s < l.samples; ++s) {
    for (int64_t f = 0; f < l.features; ++f) {
      const float mn = mins_[static_cast<size_t>(f)];
      const float mx = maxs_[static_cast<size_t>(f)];
      const float range = mx - mn;
      const float* in = data.data() + (s * l.features + f) * l.group_size;
      float* o = out.data() + (s * l.features + f) * l.group_size;
      for (int64_t g = 0; g < l.group_size; ++g) {
        o[g] = range > 0.0f ? 2.0f * (in[g] - mn) / range - 1.0f : 0.0f;
      }
    }
  }
  return out;
}

void SplitDataset(const Dataset& all, int64_t head, Dataset* first,
                  Dataset* second) {
  EF_CHECK(head >= 0 && head <= all.size());
  const int64_t n = all.size();
  const int64_t in_per = all.inputs.size() / n;
  const int64_t tg_per = all.targets.size() / n;

  auto slice = [&](const Tensor& t, int64_t per, int64_t begin,
                   int64_t count) {
    tensor::Shape shape = t.shape();
    shape[0] = count;
    Tensor out(shape);
    std::copy(t.data() + begin * per, t.data() + (begin + count) * per,
              out.data());
    return out;
  };

  first->name = all.name + ".train";
  first->inputs = slice(all.inputs, in_per, 0, head);
  first->targets = slice(all.targets, tg_per, 0, head);
  first->input_names = all.input_names;
  first->target_names = all.target_names;

  second->name = all.name + ".test";
  second->inputs = slice(all.inputs, in_per, head, n - head);
  second->targets = slice(all.targets, tg_per, head, n - head);
  second->input_names = all.input_names;
  second->target_names = all.target_names;
}

}  // namespace data
}  // namespace errorflow
