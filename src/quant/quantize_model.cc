#include "quant/quantize_model.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "nn/conv2d.h"
#include "nn/dense.h"
#include "quant/affine.h"
#include "quant/optq.h"
#include "quant/step_size.h"
#include "util/macros.h"

namespace errorflow {
namespace quant {

namespace {

using tensor::Tensor;

std::string VariantSuffix(const VariantSpec& spec) {
  std::string suffix = std::string(".") + FormatToString(spec.format);
  if (spec.quantizer != WeightQuantizer::kMaxAffine) {
    suffix += std::string("+") + QuantizerToString(spec.quantizer);
  }
  return suffix;
}

// Table-I rounding of one weight tensor: mantissa rounding for the float
// formats, per-tensor max-calibration affine for INT8.
void RoundToTableI(NumericFormat format, Tensor* w, LayerQuantRecord* rec) {
  rec->table_step = AverageStepSize(*w, format);
  rec->effective_step = rec->table_step;
  const Tensor original = *w;
  if (format == NumericFormat::kINT8) {
    QuantizeDequantizeInt8(w);
  } else {
    RoundBufferToFormat(w->data(), w->size(), format);
  }
  double sum_sq = 0.0, max_delta = 0.0;
  for (int64_t i = 0; i < w->size(); ++i) {
    const double delta =
        std::fabs(static_cast<double>((*w)[i]) - original[i]);
    sum_sq += delta * delta;
    max_delta = std::max(max_delta, delta);
  }
  rec->max_abs_delta = max_delta;
  if (w->size() > 0) {
    rec->rms_delta = std::sqrt(sum_sq / static_cast<double>(w->size()));
  }
}

}  // namespace

std::vector<double> MaterializedModel::EffectiveSteps() const {
  std::vector<double> steps;
  steps.reserve(layers.size());
  for (const LayerQuantRecord& rec : layers) {
    steps.push_back(rec.effective_step);
  }
  return steps;
}

MaterializedModel Materialize(const nn::Model& model, const VariantSpec& spec,
                              const tensor::Tensor& calibration) {
  const bool data_driven = spec.quantizer != WeightQuantizer::kMaxAffine;
  EF_CHECK(!data_driven || spec.format == NumericFormat::kINT8);
  MaterializedModel out;
  out.model = model.Clone();
  out.model.set_name(model.name() + VariantSuffix(spec));
  out.model.FoldPsn();

  std::optional<OptqCalibration> optq;
  if (data_driven) optq.emplace(&out.model, calibration);

  int64_t index = 0;
  out.model.VisitLayers([&](nn::Layer* layer) {
    Tensor* w = nullptr;
    LayerQuantRecord rec;
    if (auto* d = dynamic_cast<nn::DenseLayer*>(layer)) {
      w = &d->mutable_weight();
      rec.layer = d->ToString();
    } else if (auto* c = dynamic_cast<nn::Conv2dLayer*>(layer)) {
      w = &c->mutable_weight();
      rec.layer = c->ToString();
    } else {
      return;
    }
    rec.format = spec.format;
    rec.rows = w->dim(0);
    rec.cols = w->size() / std::max<int64_t>(1, rec.rows);
    if (data_driven) {
      optq->QuantizeLayer(layer, index, spec.quantizer, w, &rec);
    } else if (rec.format != NumericFormat::kFP32) {
      RoundToTableI(rec.format, w, &rec);
    }
    out.layers.push_back(std::move(rec));
    ++index;
  });
  return out;
}

int64_t ModelStorageBytes(const nn::Model& model, NumericFormat format) {
  // ParameterCount is non-const (it walks mutable Param views); a const_cast
  // is safe because the walk never writes.
  const int64_t params =
      const_cast<nn::Model&>(model).ParameterCount();
  return params * static_cast<int64_t>(StorageBits(format)) / 8;
}

}  // namespace quant
}  // namespace errorflow
