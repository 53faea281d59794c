#include "serve/model_registry.h"

#include <algorithm>

#include "core/spectral_profile.h"
#include "nn/serialize.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "quant/quantize_model.h"
#include "util/random.h"

namespace errorflow {
namespace serve {

namespace {

// Seed of the synthesized calibration batch; fixed so the cached steps and
// every later materialization agree bit-exactly.
constexpr uint64_t kCalibrationSeed = 0xca11b8a7c4ull;

std::string VariantKey(const std::string& name, quant::NumericFormat format,
                       quant::WeightQuantizer quantizer) {
  std::string key = name + "\n" + quant::FormatToString(format);
  if (quantizer != quant::WeightQuantizer::kMaxAffine) {
    key += "\n";
    key += quant::QuantizerToString(quantizer);
  }
  return key;
}

}  // namespace

uint64_t ModelRegistry::ChecksumModel(const nn::Model& model) {
  const std::string bytes = nn::SerializeModel(model);
  uint64_t h = 1469598103934665603ull;  // FNV-1a 64-bit offset basis.
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

ModelRegistry::ModelRegistry(ServerConfig config)
    : config_(std::move(config)),
      quantize_count_(obs::MetricsRegistry::Global().GetCounter(
          "errorflow.serve.registry.quantize_count")),
      hits_(obs::MetricsRegistry::Global().GetCounter(
          "errorflow.serve.registry.hits")),
      misses_(obs::MetricsRegistry::Global().GetCounter(
          "errorflow.serve.registry.misses")),
      evictions_(obs::MetricsRegistry::Global().GetCounter(
          "errorflow.serve.registry.evictions")),
      invalidations_(obs::MetricsRegistry::Global().GetCounter(
          "errorflow.serve.registry.invalidations")),
      decode_failures_(obs::MetricsRegistry::Global().GetCounter(
          "errorflow.serve.decode_failures")),
      bytes_gauge_(obs::MetricsRegistry::Global().GetGauge(
          "errorflow.serve.registry.variant_bytes")),
      models_gauge_(obs::MetricsRegistry::Global().GetGauge(
          "errorflow.serve.registry.models")) {}

Status ModelRegistry::Register(std::string name, nn::Model model,
                               tensor::Shape single_input_shape) {
  tensor::Tensor calibration;
  if (config_.data_driven_quantizer != quant::WeightQuantizer::kMaxAffine) {
    // Synthesize the calibration batch: uniform [-1, 1] matches the
    // normalized serving inputs, and the fixed seed keeps every later
    // materialization bit-identical to the steps priced here.
    tensor::Shape calib_shape = single_input_shape;
    if (calib_shape.empty()) {
      return Status::InvalidArgument("registry: bad input shape");
    }
    calib_shape[0] = std::max<int64_t>(1, config_.calibration_samples);
    calibration = tensor::Tensor(calib_shape);
    util::Rng rng(kCalibrationSeed);
    for (int64_t i = 0; i < calibration.size(); ++i) {
      calibration[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
  }
  return Register(std::move(name), std::move(model),
                  std::move(single_input_shape), std::move(calibration));
}

Status ModelRegistry::Register(std::string name, nn::Model model,
                               tensor::Shape single_input_shape,
                               tensor::Tensor calibration) {
  if (name.empty() || name.find('\n') != std::string::npos) {
    return Status::InvalidArgument("registry: bad model name");
  }
  if (calibration.size() > 0) {
    // A mis-shaped batch would otherwise reach DenseLayer::Forward's
    // EF_CHECK during the calibration pass and abort the process; reject
    // it here like every other bad-input path in this API.
    if (calibration.ndim() !=
        static_cast<int64_t>(single_input_shape.size())) {
      return Status::InvalidArgument(
          "registry: calibration batch rank does not match input shape");
    }
    for (size_t i = 1; i < single_input_shape.size(); ++i) {
      if (calibration.dim(static_cast<int>(i)) != single_input_shape[i]) {
        return Status::InvalidArgument(
            "registry: calibration batch trailing dims do not match input "
            "shape");
      }
    }
  }
  obs::TraceSpan span("serve.registry.register");
  // Profile before folding, as the pipeline does: the profiler reads PSN
  // scales through the layer API.
  core::ErrorFlowAnalysis analysis(
      core::ProfileModel(model, single_input_shape));
  model.FoldPsn();
  auto entry = std::make_unique<Entry>(std::move(model), std::move(analysis),
                                       single_input_shape);
  entry->flops_per_sample = entry->base.FlopsPerSample(single_input_shape);
  int64_t elems = 1;
  for (size_t i = 1; i < single_input_shape.size(); ++i) {
    elems *= single_input_shape[i];
  }
  entry->bytes_per_sample = elems * static_cast<int64_t>(sizeof(float));

  if (config_.data_driven_quantizer != quant::WeightQuantizer::kMaxAffine &&
      calibration.size() > 0) {
    // Price the data-driven variant's effective steps once, up front:
    // admission consults them on every request, and the deterministic
    // quantizer guarantees any later materialization reproduces exactly
    // the weights these steps were measured on. The quantized clone is
    // discarded here — GetVariant materializes lazily, like every other
    // variant.
    entry->calibration = std::move(calibration);
    entry->optq_steps =
        quant::Materialize(entry->base,
                           {quant::NumericFormat::kINT8,
                            config_.data_driven_quantizer},
                           entry->calibration)
            .EffectiveSteps();
    if (static_cast<int64_t>(entry->optq_steps.size()) !=
        entry->analysis.LinearLayerCount()) {
      return Status::Internal(
          "registry: data-driven step count does not match profile");
    }
    entry->data_driven = core::PricedVariant{
        quant::NumericFormat::kINT8, config_.data_driven_quantizer,
        entry->analysis.QuantTerm(entry->optq_steps)};
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.count(name) != 0) {
    return Status::AlreadyExists("registry: model already registered: " +
                                 name);
  }
  entries_.emplace(std::move(name), std::move(entry));
  models_gauge_->Set(static_cast<double>(entries_.size()));
  return Status::OK();
}

Result<const ModelRegistry::Entry*> ModelRegistry::Lookup(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("registry: no such model: " + name);
  }
  return static_cast<const Entry*>(it->second.get());
}

Result<std::shared_ptr<ModelRegistry::Variant>> ModelRegistry::GetVariant(
    const std::string& name, quant::NumericFormat format,
    quant::WeightQuantizer quantizer) {
  if (quantizer != quant::WeightQuantizer::kMaxAffine &&
      format != quant::NumericFormat::kINT8) {
    return Status::InvalidArgument(
        std::string("registry: quantizer ") +
        quant::QuantizerToString(quantizer) +
        " only applies to int8 variants");
  }
  const std::string key = VariantKey(name, format, quantizer);

  std::shared_ptr<Variant> cached;
  VerifyHook verify_hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto hit = variants_.find(key);
    if (hit != variants_.end()) {
      hit->second.last_used_tick = ++tick_;
      cached = hit->second.variant;
      if (config_.verify_variants) verify_hook = verify_hook_;
    }
  }
  if (cached != nullptr) {
    bool verified = true;
    if (config_.verify_variants) {
      if (verify_hook) verify_hook(name, format);
      // The serialization pass runs off the lock: a slow checksum never
      // convoys other leases (or other workers re-verifying the same
      // variant) behind this one.
      verified = ChecksumModel(cached->model) == cached->checksum;
    }
    if (verified) {
      hits_->Increment();
      return cached;
    }
    // Corrupt cached variant: count it, drop it, and fall through to the
    // miss path so the lease is served by re-quantizing from the (trusted)
    // FP32 base instead of crashing or handing out bad weights.
    decode_failures_->Increment();
    obs::Logf(obs::LogLevel::kWarn,
              "registry: checksum mismatch on cached variant %s/%s; "
              "re-quantizing from base",
              name.c_str(), quant::FormatToString(format));
  }

  const Entry* entry = nullptr;
  MaterializeFaultHook fault_hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (cached != nullptr) {
      // CAS-style drop: only the exact variant we verified is erased, so a
      // racing thread that already replaced the slot is left alone.
      auto it = variants_.find(key);
      if (it != variants_.end() && it->second.variant == cached) {
        EraseLocked(it);
      }
    }
    auto entry_it = entries_.find(name);
    if (entry_it == entries_.end()) {
      return Status::NotFound("registry: no such model: " + name);
    }
    entry = entry_it->second.get();
    fault_hook = materialize_fault_hook_;
  }
  misses_->Increment();
  if (fault_hook) {
    Status fault = fault_hook(name, format);
    if (!fault.ok()) {
      decode_failures_->Increment();
      return Status(fault.code(),
                    std::string("registry: failed to materialize ") + name +
                        "/" + quant::FormatToString(format) + ": " +
                        fault.message());
    }
  }
  quantize_count_->Increment();

  // Quantize outside the lock: materializing one variant must not stall
  // every other lease. Concurrent misses on the same key may duplicate
  // this work; the insert below reconciles.
  obs::TraceSpan span("serve.registry.quantize");
  auto variant = std::make_shared<Variant>();
  variant->format = format;
  variant->quantizer = quantizer;
  if (quantizer != quant::WeightQuantizer::kMaxAffine &&
      entry->calibration.size() == 0) {
    decode_failures_->Increment();
    return Status::FailedPrecondition(
        std::string("registry: model ") + name +
        " was not registered with data-driven calibration");
  }
  // Deterministic: a data-driven variant is bit-identical to the clone
  // whose effective steps Register priced, however many evictions later.
  // kFP32 yields a plain folded clone.
  variant->model = std::move(
      quant::Materialize(entry->base, {format, quantizer}, entry->calibration)
          .model);
  // The base was folded at Register; folding the clone again is a no-op
  // that keeps the "serving never runs power iteration" invariant robust
  // to future base-model sources.
  variant->model.FoldPsn();
  // Variants store rounded values as FP32, so resident bytes are the FP32
  // footprint regardless of the logical format width.
  variant->resident_bytes =
      quant::ModelStorageBytes(variant->model, quant::NumericFormat::kFP32);
  variant->checksum = ChecksumModel(variant->model);
  obs::Logf(obs::LogLevel::kDebug,
            "registry: materialized %s/%s (%lld bytes)", name.c_str(),
            quant::FormatToString(format),
            static_cast<long long>(variant->resident_bytes));

  std::lock_guard<std::mutex> lock(mu_);
  auto [slot, inserted] =
      variants_.try_emplace(key, CachedVariant{variant, 0});
  // When another materializer inserted while we quantized, lease theirs so
  // the cache keeps exactly one resident copy per key.
  slot->second.last_used_tick = ++tick_;
  if (!inserted) return slot->second.variant;
  variant_bytes_ += variant->resident_bytes;
  EvictLocked(key);
  bytes_gauge_->Set(static_cast<double>(variant_bytes_));
  return variant;
}

bool ModelRegistry::InvalidateVariant(const std::string& name,
                                      quant::NumericFormat format,
                                      quant::WeightQuantizer quantizer) {
  const std::string key = VariantKey(name, format, quantizer);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = variants_.find(key);
  if (it == variants_.end()) return false;
  invalidations_->Increment();
  obs::Logf(obs::LogLevel::kWarn,
            "registry: invalidated variant %s/%s; next lease re-quantizes "
            "from base",
            name.c_str(), quant::FormatToString(format));
  EraseLocked(it);
  return true;
}

void ModelRegistry::EraseLocked(
    std::map<std::string, CachedVariant>::iterator it) {
  variant_bytes_ -= it->second.variant->resident_bytes;
  bytes_gauge_->Set(static_cast<double>(variant_bytes_));
  variants_.erase(it);
}

void ModelRegistry::EvictLocked(const std::string& keep) {
  while (variant_bytes_ > config_.max_variant_bytes && variants_.size() > 1) {
    auto victim = variants_.end();
    for (auto it = variants_.begin(); it != variants_.end(); ++it) {
      if (it->first == keep) continue;
      if (victim == variants_.end() ||
          it->second.last_used_tick < victim->second.last_used_tick) {
        victim = it;
      }
    }
    evictions_->Increment();
    obs::Logf(obs::LogLevel::kDebug, "registry: evicted variant %s",
              victim->first.c_str());
    EraseLocked(victim);
  }
}

int64_t ModelRegistry::variant_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(variants_.size());
}

int64_t ModelRegistry::variant_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return variant_bytes_;
}

}  // namespace serve
}  // namespace errorflow
