#ifndef ERRORFLOW_SERVE_ADMISSION_H_
#define ERRORFLOW_SERVE_ADMISSION_H_

#include <array>
#include <cstdint>
#include <vector>

#include "core/error_bound.h"
#include "obs/metrics.h"
#include "serve/request.h"
#include "util/result.h"

namespace errorflow {
namespace serve {

/// \brief Admission policy.
struct AdmissionConfig {
  tensor::Norm norm = tensor::Norm::kLinf;
  /// Formats the controller may choose from; empty means all five
  /// (FP32 included, so any positive tolerance is feasible). Restricting
  /// to ReducedFormats() makes tight tolerances rejectable.
  std::vector<quant::NumericFormat> allowed_formats;
  /// Backpressure bound: requests arriving while this many admitted
  /// requests are still queued are shed with kResourceExhausted.
  int64_t max_queue_depth = 1024;
};

/// \brief The controller's verdict for an admitted request.
struct AdmissionDecision {
  quant::NumericFormat format = quant::NumericFormat::kFP32;
  /// Weight quantizer of the chosen variant: kMaxAffine for the Table-I
  /// family, kOptq/kSpfq when the data-driven INT8 candidate won.
  quant::WeightQuantizer quantizer = quant::WeightQuantizer::kMaxAffine;
  /// Predicted QoI bound of the chosen format (quantization term only).
  double quant_bound = 0.0;
  /// Tolerance left unused by the chosen format.
  double slack = 0.0;
};

/// \brief Maps a request's QoI tolerance to the fastest feasible quantized
/// format via the error-flow bound, rejecting doomed work up front.
///
/// Typed rejections:
///  - kInvalidArgument:    tolerance <= 0 (a zero budget admits no error
///                         bound, not even FP32's, under Linf/L2 semantics);
///  - kDeadlineExceeded:   deadline already expired at submit;
///  - kResourceExhausted:  queue depth at the backpressure bound;
///  - kFailedPrecondition: tolerance below the tightest feasible bound of
///                         the allowed formats.
///
/// Every path increments an `errorflow.serve.admission.*` counter.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config);

  /// Decides one request. `now` is injected for testability; production
  /// callers pass Clock::now(). `queue_depth` is the number of admitted,
  /// not-yet-dispatched requests. `overloaded` is the scheduler's
  /// SLO-overload signal: while set, the effective queue bound is halved,
  /// so backpressure engages before the queue grows into latency the
  /// adaptive batcher can no longer shed its way out of.
  ///
  /// The candidates are every allowed format, priced from `analysis`'s
  /// cache, then `data_driven` (ModelRegistry::Entry::data_driven) when
  /// given and INT8 is allowed. Its tighter measured bound can admit
  /// tolerances the worst-case max-affine INT8 bound cannot; on a speed
  /// tie with an admitted max-affine INT8 the max-affine variant wins, as
  /// the earlier candidate (no reason to pay the calibration variant when
  /// the worst-case one already fits).
  Result<AdmissionDecision> Admit(
      const core::ErrorFlowAnalysis& analysis, double qoi_tolerance,
      Clock::time_point deadline, Clock::time_point now, int64_t queue_depth,
      bool overloaded = false,
      const core::PricedVariant* data_driven = nullptr) const;

  const AdmissionConfig& config() const { return config_; }

 private:
  AdmissionConfig config_;
  obs::Counter* admitted_;
  /// Per-chosen-format admissions, indexed by the NumericFormat ordinal:
  /// errorflow.serve.admission.admitted.<format>.
  std::array<obs::Counter*, 5> admitted_by_format_;
  obs::Counter* rejected_invalid_;
  obs::Counter* rejected_expired_;
  obs::Counter* rejected_overload_;
  obs::Counter* rejected_infeasible_;
  /// Admissions won by the data-driven INT8 candidate:
  /// errorflow.serve.admission.admitted.data_driven.
  obs::Counter* admitted_data_driven_;
};

}  // namespace serve
}  // namespace errorflow

#endif  // ERRORFLOW_SERVE_ADMISSION_H_
