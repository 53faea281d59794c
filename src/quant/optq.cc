#include "quant/optq.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "nn/calibration.h"
#include "obs/metrics.h"
#include "quant/step_size.h"
#include "tensor/ops.h"
#include "util/macros.h"
#include "util/random.h"

namespace errorflow {
namespace quant {

namespace {

using tensor::Tensor;

/// Relative Hessian damping: lambda = kDamping * mean(diag(H)) is added to
/// the calibration Gram before factorization (the standard OPTQ
/// percent-damping trick). Grown x10 on factorization failure.
constexpr double kDamping = 0.01;
/// Cap on calibration feature vectors accumulated into one layer's Gram
/// per forward pass; larger captures are evenly subsampled. Bounds the
/// Gram cost on convolutional layers, where one batch contributes
/// batch * oh * ow columns.
constexpr int64_t kMaxGramColumns = 4096;
/// Seed for the SPFQ stochastic-rounding mode. Fixed so materialization
/// is deterministic: re-quantizing a variant reproduces it bit-exactly.
constexpr uint64_t kSpfqSeed = 0x5eedf00dull;

struct QuantMetrics {
  obs::Counter* layers;
  obs::Counter* gram_columns;
  obs::Counter* fallbacks;
  obs::Histogram* step_ratio;
};

QuantMetrics* Metrics() {
  static QuantMetrics* m = [] {
    auto& reg = obs::MetricsRegistry::Global();
    auto* qm = new QuantMetrics;
    qm->layers = reg.GetCounter("errorflow.quant.optq.layers");
    qm->gram_columns = reg.GetCounter("errorflow.quant.optq.gram_columns");
    qm->fallbacks = reg.GetCounter("errorflow.quant.optq.fallbacks");
    qm->step_ratio = reg.GetHistogram("errorflow.quant.optq.step_ratio",
                                      obs::Histogram::DefaultRatioBounds());
    return qm;
  }();
  return m;
}

/// Per-layer calibration statistics: the (d, d) input Gram in double
/// precision plus the number of feature vectors folded in.
struct GramAccum {
  std::vector<double> h;  // (d, d) row-major.
  int64_t d = 0;
  int64_t columns = 0;
};

/// In-place lower Cholesky of the row-major (n, n) matrix `a` (strict
/// upper triangle left stale). False on a non-SPD or non-finite pivot.
bool CholeskyLower(std::vector<double>* a, int64_t n) {
  std::vector<double>& m = *a;
  for (int64_t j = 0; j < n; ++j) {
    double diag = m[j * n + j];
    for (int64_t k = 0; k < j; ++k) diag -= m[j * n + k] * m[j * n + k];
    if (!(diag > 0.0) || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    m[j * n + j] = ljj;
    for (int64_t i = j + 1; i < n; ++i) {
      double v = m[i * n + j];
      for (int64_t k = 0; k < j; ++k) v -= m[i * n + k] * m[j * n + k];
      m[i * n + j] = v / ljj;
    }
  }
  return true;
}

/// Given the lower Cholesky factor L of H (row-major (n, n)), fills
/// `hinv` with H^-1 by solving L L^T x = e_i column by column.
void InvertFromCholesky(const std::vector<double>& l, int64_t n,
                        std::vector<double>* hinv) {
  hinv->assign(static_cast<size_t>(n) * n, 0.0);
  std::vector<double> y(n), x(n);
  for (int64_t col = 0; col < n; ++col) {
    for (int64_t i = 0; i < n; ++i) {
      double v = (i == col) ? 1.0 : 0.0;
      for (int64_t k = 0; k < i; ++k) v -= l[i * n + k] * y[k];
      y[i] = v / l[i * n + i];
    }
    for (int64_t i = n - 1; i >= 0; --i) {
      double v = y[i];
      for (int64_t k = i + 1; k < n; ++k) v -= l[k * n + i] * x[k];
      x[i] = v / l[i * n + i];
    }
    for (int64_t i = 0; i < n; ++i) (*hinv)[i * n + col] = x[i];
  }
}

/// Per-output-channel affine grid, mirroring CalibrateMax's conventions
/// (range/255 with the INT8 reconciliation; constant rows get scale 1).
struct RowGrid {
  double scale;
  double zero_point;
};

RowGrid GridForRow(const float* row, int64_t d) {
  float lo = row[0], hi = row[0];
  for (int64_t i = 1; i < d; ++i) {
    lo = std::min(lo, row[i]);
    hi = std::max(hi, row[i]);
  }
  RowGrid g;
  const double range = static_cast<double>(hi) - static_cast<double>(lo);
  if (!(range > 0.0) || !std::isfinite(range)) {
    g.scale = 1.0;
    g.zero_point =
        std::min(127.0, std::max(-128.0, -static_cast<double>(lo)));
    return g;
  }
  g.scale = range / 255.0;
  g.zero_point = std::llround(-128.0 - static_cast<double>(lo) / g.scale);
  return g;
}

/// Quantizes one (rows, d) weight matrix in place with greedy
/// error-feedback rounding against the layer Gram, and fills `rec`.
void RoundWithErrorFeedback(Tensor* w, const GramAccum* gram,
                            WeightQuantizer quantizer, uint64_t layer_seed,
                            LayerQuantRecord* rec) {
  const int64_t rows = w->dim(0);
  const int64_t d = w->dim(1);
  rec->table_step = AverageStepSize(*w, NumericFormat::kINT8);

  QuantMetrics* metrics = Metrics();
  metrics->layers->Increment();

  // Damped Hessian proxy. A missing or degenerate Gram degrades to the
  // identity, which makes the error-feedback update a no-op (plain
  // per-channel rounding) — still valid, just not data-driven.
  const int64_t nn = d * d;
  std::vector<double> h(nn, 0.0);
  bool identity = true;
  if (gram != nullptr && gram->columns > 0) {
    double mean_diag = 0.0;
    for (int64_t i = 0; i < d; ++i) mean_diag += gram->h[i * d + i];
    mean_diag /= static_cast<double>(d);
    if (mean_diag > 0.0 && std::isfinite(mean_diag)) {
      identity = false;
      rec->calib_columns = gram->columns;
      metrics->gram_columns->Increment(
          static_cast<uint64_t>(gram->columns));
      double lambda = kDamping * mean_diag;
      bool ok = false;
      for (int attempt = 0; attempt < 6 && !ok; ++attempt) {
        h = gram->h;
        for (int64_t i = 0; i < d; ++i) h[i * d + i] += lambda;
        ok = CholeskyLower(&h, d);
        lambda *= 10.0;
      }
      if (!ok) identity = true;
    }
  }
  if (identity) {
    metrics->fallbacks->Increment();
    rec->calib_columns = 0;
  }

  // U is the upper Cholesky factor of H^-1 (H^-1 = U^T U): after rounding
  // column j, subtracting err_j * U[j][j:] from the remaining columns is
  // the exact least-squares compensation for || (W - What) X ||. Under the
  // identity fallback U == I and the loop reduces to independent rounding.
  std::vector<double> u;  // (d, d) row-major, upper triangular.
  if (!identity) {
    std::vector<double> hinv;
    InvertFromCholesky(h, d, &hinv);
    // Lower Cholesky M of H^-1 = M M^T gives H^-1 = (M^T)^T (M^T), so the
    // upper factor is U = M^T. Numerical failure here (H^-1 barely SPD in
    // double) also falls back to identity.
    if (CholeskyLower(&hinv, d)) {
      u.assign(static_cast<size_t>(d) * d, 0.0);
      for (int64_t i = 0; i < d; ++i) {
        for (int64_t j = 0; j <= i; ++j) u[j * d + i] = hinv[i * d + j];
      }
    } else {
      identity = true;
      metrics->fallbacks->Increment();
      rec->calib_columns = 0;
    }
  }

  std::vector<RowGrid> grids(rows);
  for (int64_t r = 0; r < rows; ++r) {
    grids[r] = GridForRow(&(*w)[r * d], d);
  }

  const Tensor original = *w;
  // Working copy (double): the residual feedback accumulates here so later
  // columns round the *compensated* weights.
  std::vector<double> work(static_cast<size_t>(rows) * d);
  for (int64_t i = 0; i < rows * d; ++i) work[i] = (*w)[i];

  util::Rng rng(layer_seed);
  const bool stochastic = quantizer == WeightQuantizer::kSpfq;
  std::vector<double> err(rows);
  for (int64_t j = 0; j < d; ++j) {
    const double ujj = identity ? 1.0 : std::max(u[j * d + j], 1e-12);
    for (int64_t r = 0; r < rows; ++r) {
      const RowGrid& g = grids[r];
      const double wv = work[r * d + j];
      if (!std::isfinite(wv)) {
        // Affine NaN policy (affine.cc): NaN quantizes to the clamped
        // zero point (dequantizes to 0), ±Inf clamps to the grid
        // endpoint. Either way the error feedback is skipped — a
        // non-finite residual would poison every remaining column of the
        // row, turning one bad weight into a NaN effective step that
        // silently disables the data-driven variant at admission.
        double q = std::isnan(wv) ? g.zero_point
                                  : (wv > 0.0 ? 127.0 : -128.0);
        q = std::min(127.0, std::max(-128.0, q));
        (*w)[r * d + j] = static_cast<float>(g.scale * (q - g.zero_point));
        err[r] = 0.0;
        continue;
      }
      const double z = wv / g.scale + g.zero_point;
      double q = stochastic ? std::floor(z + rng.UniformDouble())
                            : std::nearbyint(z);
      q = std::min(127.0, std::max(-128.0, q));
      const double wq = g.scale * (q - g.zero_point);
      (*w)[r * d + j] = static_cast<float>(wq);
      err[r] = (wv - wq) / ujj;
    }
    if (identity || j + 1 == d) continue;
    const double* urow = &u[j * d];
    for (int64_t r = 0; r < rows; ++r) {
      const double e = err[r];
      if (e == 0.0) continue;
      double* wrow = &work[r * d];
      for (int64_t k = j + 1; k < d; ++k) wrow[k] -= e * urow[k];
    }
  }

  // Measured perturbation statistics against the *original* weights.
  // Non-finite originals are excluded: their quantized value is pinned by
  // the NaN policy above, and a NaN delta would otherwise ride through
  // rms_delta into a NaN effective step (and a never-admitting bound).
  double sum_sq = 0.0, max_abs = 0.0;
  for (int64_t i = 0; i < rows * d; ++i) {
    const double delta =
        static_cast<double>((*w)[i]) - static_cast<double>(original[i]);
    if (!std::isfinite(delta)) continue;
    sum_sq += delta * delta;
    max_abs = std::max(max_abs, std::fabs(delta));
  }
  rec->max_abs_delta = max_abs;
  rec->rms_delta = std::sqrt(sum_sq / static_cast<double>(rows * d));
  // Fallback effective step: the uniform step whose grid noise matches
  // the raw weight perturbation (RMS(delta) = q / sqrt(12)).
  rec->effective_step = std::sqrt(12.0) * rec->rms_delta;

  // Measured calibration-output error: sum_r delta_r H delta_r^T over the
  // raw (undamped) Gram, normalized per output scalar. The data-driven
  // effective step is the q whose independent-rounding CLT prediction
  // q/sqrt(12) * sqrt(sum_i E[x_i^2]) reproduces this measurement — the
  // error-feedback cancellation lands as a smaller step than range/255.
  if (gram != nullptr && gram->columns > 0 && rec->calib_columns > 0) {
    double total = 0.0;
    std::vector<double> delta(d);
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t k = 0; k < d; ++k) {
        delta[k] = static_cast<double>((*w)[r * d + k]) -
                   static_cast<double>(original[r * d + k]);
        // Same exclusion as the RMS statistics above.
        if (!std::isfinite(delta[k])) delta[k] = 0.0;
      }
      for (int64_t i = 0; i < d; ++i) {
        if (delta[i] == 0.0) continue;
        const double* hrow = &gram->h[i * d];
        double dot = 0.0;
        for (int64_t k = 0; k < d; ++k) dot += hrow[k] * delta[k];
        total += delta[i] * dot;
      }
    }
    total = std::max(total, 0.0);
    rec->calib_rms_error = std::sqrt(
        total / (static_cast<double>(gram->columns) *
                 static_cast<double>(rows)));
    double trace = 0.0;
    for (int64_t i = 0; i < d; ++i) trace += gram->h[i * d + i];
    // sum_i E[x_i^2] over the calibration feature vectors.
    const double input_sq = trace / static_cast<double>(gram->columns);
    if (input_sq > 0.0 && std::isfinite(input_sq)) {
      rec->effective_step =
          std::sqrt(12.0) * rec->calib_rms_error / std::sqrt(input_sq);
    }
  }
  if (rec->table_step > 0.0) {
    metrics->step_ratio->Record(rec->effective_step / rec->table_step);
  }
}

}  // namespace

/// CalibrationObserver that accumulates per-layer input Grams during the
/// single calibration forward pass. Keyed by Layer* so the capture is
/// independent of execution order (residual bodies, shortcuts).
class OptqCalibration::Grams : public nn::CalibrationObserver {
 public:
  explicit Grams(int64_t max_columns) : max_columns_(max_columns) {}

  void OnLinearInput(const nn::Layer* layer, const float* data, int64_t d,
                     int64_t n, bool features_are_rows) override {
    if (d <= 0 || n <= 0) return;
    // Evenly subsample at most max_columns_ feature vectors, then stage
    // them features-major as A (d, m) so the Gram is one GemmNT.
    const int64_t m = std::min<int64_t>(n, max_columns_);
    const double stride = static_cast<double>(n) / static_cast<double>(m);
    Tensor a({d, m});
    for (int64_t jj = 0; jj < m; ++jj) {
      const int64_t j = std::min<int64_t>(
          n - 1, static_cast<int64_t>(static_cast<double>(jj) * stride));
      if (features_are_rows) {
        // Conv im2col layout: (d, n), feature f of column j at f*n + j.
        for (int64_t f = 0; f < d; ++f) a.at(f, jj) = data[f * n + j];
      } else {
        // Dense layout: (n, d), feature f of sample j at j*d + f.
        for (int64_t f = 0; f < d; ++f) a.at(f, jj) = data[j * d + f];
      }
    }
    Tensor g({d, d});
    tensor::GemmNT(a, a, &g);

    GramAccum& acc = grams_[layer];
    if (acc.d == 0) {
      acc.d = d;
      acc.h.assign(static_cast<size_t>(d) * d, 0.0);
    }
    EF_CHECK(acc.d == d);
    for (int64_t i = 0; i < d * d; ++i) acc.h[i] += g[i];
    acc.columns += m;
  }

  const GramAccum* Find(const nn::Layer* layer) const {
    auto it = grams_.find(layer);
    return it == grams_.end() ? nullptr : &it->second;
  }

 private:
  int64_t max_columns_;
  std::map<const nn::Layer*, GramAccum> grams_;
};

OptqCalibration::OptqCalibration(nn::Model* model,
                                 const tensor::Tensor& calibration)
    : grams_(std::make_unique<Grams>(kMaxGramColumns)) {
  if (calibration.size() == 0) return;
  // Single calibration forward pass with the Gram collector installed.
  // The observer is thread-local, so only *this thread's* Forward calls
  // feed the collector: serving Forwards running concurrently on other
  // threads — or a second materialization racing on another worker —
  // never touch it, and the scoped install/restore below cannot interact
  // with theirs.
  nn::CalibrationObserver* prev = nn::SetCalibrationObserver(grams_.get());
  Tensor scratch;
  model->Forward(calibration, &scratch, /*training=*/false);
  nn::SetCalibrationObserver(prev);
}

OptqCalibration::~OptqCalibration() = default;

void OptqCalibration::QuantizeLayer(const nn::Layer* layer, int64_t index,
                                    WeightQuantizer quantizer, Tensor* w,
                                    LayerQuantRecord* rec) const {
  EF_CHECK(quantizer == WeightQuantizer::kOptq ||
           quantizer == WeightQuantizer::kSpfq);
  // Seed derived from the fixed seed and the traversal index so SPFQ
  // materializations are reproducible layer by layer.
  const uint64_t layer_seed =
      kSpfqSeed + 0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(index) + 1);
  RoundWithErrorFeedback(w, grams_->Find(layer), quantizer, layer_seed, rec);
}

}  // namespace quant
}  // namespace errorflow
