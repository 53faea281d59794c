#include "serve/admission.h"

#include <algorithm>
#include <limits>
#include <string>

#include "core/allocator.h"
#include "quant/format.h"
#include "util/string_util.h"

namespace errorflow {
namespace serve {

AdmissionController::AdmissionController(AdmissionConfig config)
    : config_(std::move(config)),
      admitted_(obs::MetricsRegistry::Global().GetCounter(
          "errorflow.serve.admission.admitted")),
      admitted_by_format_([] {
        std::array<obs::Counter*, 5> counters{};
        for (quant::NumericFormat f : quant::AllFormats()) {
          counters[static_cast<size_t>(f)] =
              obs::MetricsRegistry::Global().GetCounter(
                  std::string("errorflow.serve.admission.admitted.") +
                  quant::FormatToString(f));
        }
        return counters;
      }()),
      rejected_invalid_(obs::MetricsRegistry::Global().GetCounter(
          "errorflow.serve.admission.rejected_invalid")),
      rejected_expired_(obs::MetricsRegistry::Global().GetCounter(
          "errorflow.serve.admission.rejected_expired")),
      rejected_overload_(obs::MetricsRegistry::Global().GetCounter(
          "errorflow.serve.admission.rejected_overload")),
      rejected_infeasible_(obs::MetricsRegistry::Global().GetCounter(
          "errorflow.serve.admission.rejected_infeasible")),
      admitted_data_driven_(obs::MetricsRegistry::Global().GetCounter(
          "errorflow.serve.admission.admitted.data_driven")) {}

Result<AdmissionDecision> AdmissionController::Admit(
    const core::ErrorFlowAnalysis& analysis, double qoi_tolerance,
    Clock::time_point deadline, Clock::time_point now, int64_t queue_depth,
    bool overloaded, const core::PricedVariant* data_driven) const {
  if (!(qoi_tolerance > 0.0)) {
    rejected_invalid_->Increment();
    return Status::InvalidArgument(
        util::StrFormat("admission: qoi tolerance must be > 0, got %g",
                        qoi_tolerance));
  }
  if (deadline != Clock::time_point{} && deadline <= now) {
    rejected_expired_->Increment();
    return Status::DeadlineExceeded(
        "admission: deadline already expired at submit");
  }
  const int64_t effective_depth =
      overloaded ? std::max<int64_t>(1, config_.max_queue_depth / 2)
                 : config_.max_queue_depth;
  if (queue_depth >= effective_depth) {
    rejected_overload_->Increment();
    return Status::ResourceExhausted(util::StrFormat(
        "admission: queue full (%lld/%lld%s)",
        static_cast<long long>(queue_depth),
        static_cast<long long>(effective_depth),
        overloaded ? ", bound halved under SLO overload" : ""));
  }

  // Fastest variant whose error-flow bound (at zero input error — served
  // inputs are uncompressed) fits the tolerance.
  const std::vector<quant::NumericFormat>& formats =
      config_.allowed_formats.empty() ? quant::AllFormats()
                                      : config_.allowed_formats;
  std::vector<core::PricedVariant> candidates = analysis.Price(formats);
  if (data_driven != nullptr &&
      std::find(formats.begin(), formats.end(),
                quant::NumericFormat::kINT8) != formats.end()) {
    candidates.push_back(*data_driven);
  }
  const core::PricedVariant* best =
      core::PickFastest(candidates, qoi_tolerance);
  if (best == nullptr) {
    double tightest = std::numeric_limits<double>::infinity();
    for (const core::PricedVariant& c : candidates) {
      tightest = std::min(tightest, c.quant_term);
    }
    rejected_infeasible_->Increment();
    return Status::FailedPrecondition(util::StrFormat(
        "admission: tolerance %.3e below tightest feasible bound %.3e",
        qoi_tolerance, tightest));
  }
  admitted_->Increment();
  admitted_by_format_[static_cast<size_t>(best->format)]->Increment();
  if (best->quantizer != quant::WeightQuantizer::kMaxAffine) {
    admitted_data_driven_->Increment();
  }
  AdmissionDecision decision;
  decision.format = best->format;
  decision.quantizer = best->quantizer;
  decision.quant_bound = best->quant_term;
  decision.slack = qoi_tolerance - best->quant_term;
  return decision;
}

}  // namespace serve
}  // namespace errorflow
