#include "obs/error_budget.h"

#include <cmath>
#include <limits>

#include "obs/log.h"

namespace errorflow {
namespace obs {

double ErrorBudgetLedger::tightness() const {
  if (!audited || !(admitted_bound > 0.0) || !std::isfinite(achieved_error)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return achieved_error / admitted_bound;
}

bool ErrorBudgetLedger::violation() const {
  if (!audited || !(admitted_bound > 0.0)) return false;
  // A NaN or Inf output has no tightness but always breaks the bound.
  if (!std::isfinite(achieved_error)) return true;
  const double t = tightness();
  return std::isfinite(t) && t > 1.0;
}

std::string SanitizeMetricComponent(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    out.push_back(ok ? c : '_');
  }
  if (out.empty()) out = "_";
  return out;
}

void RecordErrorBudget(const ErrorBudgetLedger& ledger, TraceSpan* span,
                       MetricsRegistry* registry) {
  registry->GetCounter("errorflow.bound.ledgers")->Increment();
  // Register eagerly so exporters emit an explicit zero: a scraper must be
  // able to tell "no violations" apart from "not instrumented".
  Counter* violations = registry->GetCounter("errorflow.bound.violations");

  const double tight = ledger.tightness();
  if (ledger.audited) {
    registry->GetCounter("errorflow.bound.audits")->Increment();
    if (std::isfinite(tight)) {
      registry
          ->GetHistogram("errorflow.bound.tightness",
                         Histogram::DefaultRatioBounds())
          ->Record(tight);
      registry
          ->GetHistogram("errorflow.bound.tightness." +
                             SanitizeMetricComponent(ledger.model) + "." +
                             SanitizeMetricComponent(ledger.format),
                         Histogram::DefaultRatioBounds())
          ->Record(tight);
    }
  }

  if (ledger.violation()) {
    violations->Increment();
    char bound_buf[32], achieved_buf[32], tight_buf[32];
    std::snprintf(bound_buf, sizeof(bound_buf), "%.6g",
                  ledger.admitted_bound);
    std::snprintf(achieved_buf, sizeof(achieved_buf), "%.6g",
                  ledger.achieved_error);
    std::snprintf(tight_buf, sizeof(tight_buf), "%.4g", tight);
    Logger::Global().Write(LogLevel::kWarn, "error bound violated",
                           {{"model", ledger.model},
                            {"format", ledger.format},
                            {"admitted_bound", bound_buf},
                            {"achieved_error", achieved_buf},
                            {"tightness", tight_buf}});
  }

  if (span != nullptr) {
    span->Annotate("model", ledger.model);
    span->Annotate("format", ledger.format);
    span->Annotate("admitted_bound", ledger.admitted_bound);
    span->Annotate("compression_term", ledger.compression_term);
    span->Annotate("quant_term", ledger.quant_term);
    if (ledger.audited) {
      span->Annotate("achieved_error", ledger.achieved_error);
      span->Annotate("tightness", tight);
      span->Annotate("violation", ledger.violation());
    }
  }
}

}  // namespace obs
}  // namespace errorflow
