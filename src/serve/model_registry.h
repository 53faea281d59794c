#ifndef ERRORFLOW_SERVE_MODEL_REGISTRY_H_
#define ERRORFLOW_SERVE_MODEL_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/error_bound.h"
#include "nn/model.h"
#include "obs/metrics.h"
#include "quant/format.h"
#include "serve/request.h"
#include "util/result.h"

namespace errorflow {
namespace serve {

/// \brief Owns the served models, their error-flow analyses, and a
/// bounded LRU cache of lazily materialized quantized variants.
///
/// DeepSZ-style serving keeps several quantized copies of a model resident
/// and selects among them per request error budget; this registry is that
/// store. A variant is quantized once on first use and found by key
/// (model, format) afterwards — the `errorflow.serve.registry.quantize_count`
/// counter stays flat across repeated same-format requests.
///
/// Locking: one mutex guards the base-model table, the variant map, the
/// LRU clock and the resident-byte total; it is held only for map
/// lookups and bookkeeping. Base entries are never removed, so a
/// looked-up `Entry*` is stable for the registry's lifetime. Expensive
/// work — quantization on a miss, checksum verification on a verified
/// hit — runs outside the lock; racing materializations of the same key
/// are reconciled at insert (first insert wins, the loser leases the
/// winner's variant). One LRU evicts against the whole
/// `max_variant_bytes`.
///
/// Thread-safe. Variants hold PSN-folded models, and inference Forward on
/// folded layers mutates no shared layer state (spectral caches are
/// mutex-guarded and the effective weight is a zero-copy reference), so any
/// number of BatchScheduler workers may execute the *same* variant
/// concurrently — no per-variant serialization. Power iteration runs once
/// at Register (profiling + fold), never per request; tests pin this down
/// via the `errorflow.spectral.power_iterations` counter.
class ModelRegistry {
 public:
  /// Reads `max_variant_bytes`, `verify_variants`, `data_driven_quantizer`
  /// and `calibration_samples`.
  explicit ModelRegistry(ServerConfig config = {});

  /// \brief Immutable per-model record: the FP32 base (PSN folded) and the
  /// error-flow analysis used by admission.
  struct Entry {
    nn::Model base;
    core::ErrorFlowAnalysis analysis;
    tensor::Shape single_input_shape;
    /// Calibration batch for the data-driven quantizer (empty when the
    /// registry runs max-affine only). Kept so GetVariant can rematerialize
    /// the variant bit-identically after an eviction or invalidation.
    tensor::Tensor calibration;
    /// Per-layer effective steps of the data-driven INT8 variant, in
    /// traversal order (quant::MaterializedModel::EffectiveSteps), measured
    /// once at Register. Empty when data-driven quantization is disabled.
    std::vector<double> optq_steps;
    /// The data-driven INT8 variant priced from `optq_steps`: the extra
    /// candidate admission ranks after the max-affine formats. Unset when
    /// data-driven quantization is disabled.
    std::optional<core::PricedVariant> data_driven;

    Entry(nn::Model base_model, core::ErrorFlowAnalysis model_analysis,
          tensor::Shape shape)
        : base(std::move(base_model)),
          analysis(std::move(model_analysis)),
          single_input_shape(std::move(shape)) {}
  };

  /// \brief One materialized quantized clone. The model is always
  /// PSN-folded, so concurrent Predict calls on one variant are safe and
  /// lock-free.
  struct Variant {
    quant::NumericFormat format = quant::NumericFormat::kFP32;
    /// Weight quantizer that produced the variant: kMaxAffine for the
    /// Table-I family, kOptq/kSpfq for the data-driven INT8 variants.
    quant::WeightQuantizer quantizer = quant::WeightQuantizer::kMaxAffine;
    nn::Model model;
    int64_t resident_bytes = 0;
    /// FNV-1a over the serialized model, taken at materialization; consulted
    /// on hits when `ServerConfig::verify_variants` is set.
    uint64_t checksum = 0;
  };

  /// Fault-injection hook: consulted at the top of every variant
  /// materialization; a non-OK return aborts the quantize and surfaces as a
  /// typed Status from GetVariant. Lets tests pin down that a failed
  /// materialization never crashes a worker. Test-only.
  using MaterializeFaultHook =
      std::function<Status(const std::string& name, quant::NumericFormat)>;

  /// Observation hook invoked at the start of every checksum verification
  /// pass, after the registry lock has been released. Lets tests pin down
  /// that verification does not hold the lock (a blocking hook must not
  /// stall other leases). Test-only.
  using VerifyHook =
      std::function<void(const std::string& name, quant::NumericFormat)>;

  /// Content checksum used for variant integrity (FNV-1a over
  /// nn::SerializeModel). Exposed so tests can compute expected values.
  static uint64_t ChecksumModel(const nn::Model& model);

  /// Profiles `model` (folding PSN afterwards) and takes ownership.
  /// `single_input_shape` as in core::ProfileModel. Fails with
  /// kAlreadyExists on duplicate names. When the registry is configured
  /// with a data-driven quantizer, a uniform [-1, 1] calibration batch of
  /// ServerConfig::calibration_samples rows is synthesized from the fixed
  /// seed kCalibrationSeed (model_registry.cc) and the variant's effective
  /// steps are priced here, once.
  Status Register(std::string name, nn::Model model,
                  tensor::Shape single_input_shape);

  /// Register with an explicit calibration batch (first dimension is the
  /// sample count; trailing dimensions must match `single_input_shape` —
  /// a non-empty mismatched batch is rejected with kInvalidArgument).
  /// Only consulted when a data-driven quantizer is configured. Prefer
  /// this overload with representative serving data: the data-driven
  /// bound is conditional on the calibration distribution (see
  /// docs/QUANTIZATION.md), so the closer the batch is to real traffic,
  /// the more the admitted bound means.
  Status Register(std::string name, nn::Model model,
                  tensor::Shape single_input_shape,
                  tensor::Tensor calibration);

  /// The registered record, or kNotFound. The pointer stays valid for the
  /// registry's lifetime (entries are never removed).
  Result<const Entry*> Lookup(const std::string& name) const;

  /// Returns the cached variant for (name, format, quantizer),
  /// materializing it on first use. kFP32 yields a plain clone of the base
  /// so execution always goes through a variant lease. A non-kMaxAffine
  /// `quantizer` is only meaningful with kINT8 (data-driven INT8) and
  /// requires a registry configured with that `data_driven_quantizer`;
  /// materialization is deterministic, so a rematerialized variant is
  /// bit-identical to the one admission priced.
  Result<std::shared_ptr<Variant>> GetVariant(
      const std::string& name, quant::NumericFormat format,
      quant::WeightQuantizer quantizer = quant::WeightQuantizer::kMaxAffine);

  /// Drops the cached variant for (name, format, quantizer) so the next
  /// lease re-quantizes it from the FP32 base — the bound-violation
  /// watchdog's recovery lever. In-flight leases stay alive through their
  /// shared_ptr. Counts under errorflow.serve.registry.invalidations.
  /// Returns true when a cached variant was actually dropped.
  bool InvalidateVariant(
      const std::string& name, quant::NumericFormat format,
      quant::WeightQuantizer quantizer = quant::WeightQuantizer::kMaxAffine);

  int64_t variant_count() const;
  int64_t variant_bytes() const;

  /// Installs (or clears, with nullptr) the materialization fault hook.
  void SetMaterializeFaultHookForTest(MaterializeFaultHook hook) {
    std::lock_guard<std::mutex> lock(mu_);
    materialize_fault_hook_ = std::move(hook);
  }

  /// Installs (or clears, with nullptr) the verification observation hook.
  void SetVerifyHookForTest(VerifyHook hook) {
    std::lock_guard<std::mutex> lock(mu_);
    verify_hook_ = std::move(hook);
  }

 private:
  struct CachedVariant {
    std::shared_ptr<Variant> variant;
    uint64_t last_used_tick = 0;
  };

  /// Drops least-recently-used variants (never `keep`) until the byte
  /// budget holds or nothing else remains. Caller holds `mu_`.
  void EvictLocked(const std::string& keep);

  /// Erases `it` from the cache and its bytes from the total. Caller holds
  /// `mu_`.
  void EraseLocked(std::map<std::string, CachedVariant>::iterator it);

  ServerConfig config_;

  mutable std::mutex mu_;
  /// Base-model table: entries never removed, pointers stable.
  std::map<std::string, std::unique_ptr<Entry>> entries_;
  /// Key: "<model>\n<format>" (model names cannot contain newlines), with
  /// a "\n<quantizer>" suffix for data-driven variants only.
  std::map<std::string, CachedVariant> variants_;
  int64_t variant_bytes_ = 0;
  uint64_t tick_ = 0;
  MaterializeFaultHook materialize_fault_hook_;
  VerifyHook verify_hook_;

  // docs/SERVING.md metric conventions.
  obs::Counter* quantize_count_;
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* evictions_;
  /// Variants dropped through InvalidateVariant (watchdog recoveries).
  obs::Counter* invalidations_;
  /// Corrupt cached variants detected (and recovered) plus failed
  /// materializations — the serving decode-failure signal.
  obs::Counter* decode_failures_;
  obs::Gauge* bytes_gauge_;
  obs::Gauge* models_gauge_;
};

}  // namespace serve
}  // namespace errorflow

#endif  // ERRORFLOW_SERVE_MODEL_REGISTRY_H_
