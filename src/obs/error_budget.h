#ifndef ERRORFLOW_OBS_ERROR_BUDGET_H_
#define ERRORFLOW_OBS_ERROR_BUDGET_H_

#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace errorflow {
namespace obs {

/// \brief Per-request error-budget record: what bound a request was
/// admitted against, how the bound decomposed, and (when an audit ran)
/// what error was actually achieved.
///
/// Plain data by design — `obs` depends on nothing else in the repo, so
/// the format is carried as its canonical lowercase string rather than a
/// quant enum. Producers fill what they know; RecordErrorBudget() turns
/// the ledger into `errorflow.bound.*` metrics, a structured log on
/// violation, and (optionally) trace-span annotations.
struct ErrorBudgetLedger {
  std::string model;
  std::string format;  ///< "fp32", "tf32", "fp16", "bf16", "int8", ...

  /// Absolute QoI-error bound the request was admitted against.
  double admitted_bound = 0.0;
  /// Decomposition of the admitted bound (see core::BoundAttribution):
  /// compression-input term + summed per-layer quantization shares.
  double compression_term = 0.0;
  double quant_term = 0.0;

  /// Measured QoI error vs the full-precision reference, in the same norm
  /// as `admitted_bound`. Only meaningful when `audited`.
  double achieved_error = 0.0;
  /// True when an audit actually measured `achieved_error`; admission-only
  /// ledgers leave this false and contribute no tightness sample.
  bool audited = false;

  /// achieved_error / admitted_bound: < 1 means the bound held with slack,
  /// > 1 is a violation. NaN when not audited, when the bound is not
  /// positive, or when the achieved error is not finite.
  double tightness() const;
  /// True when an audit measured more error than a positive admitted
  /// bound, or a NaN or Inf error (a corrupted variant's output).
  bool violation() const;
};

/// Aggregates one ledger into the registry:
///   errorflow.bound.ledgers               counter, every call
///   errorflow.bound.audits                counter, audited ledgers
///   errorflow.bound.violations            counter, audited & violated
///   errorflow.bound.tightness             histogram of tightness()
///   errorflow.bound.tightness.<model>.<format>  per model x format
/// A violation additionally emits a structured warn log. When `span` is
/// non-null the ledger is annotated onto it (model, format, bound,
/// achieved, tightness, violation), so per-request provenance lands in
/// the trace alongside the timing.
void RecordErrorBudget(const ErrorBudgetLedger& ledger,
                       TraceSpan* span = nullptr,
                       MetricsRegistry* registry = &MetricsRegistry::Global());

/// Lowercases `s` and maps anything outside [a-z0-9_] to '_', so model
/// names can be embedded as metric-name components.
std::string SanitizeMetricComponent(const std::string& s);

}  // namespace obs
}  // namespace errorflow

#endif  // ERRORFLOW_OBS_ERROR_BUDGET_H_
