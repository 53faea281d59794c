#include "obs/error_budget.h"

#include <cmath>
#include <limits>

#include "gtest/gtest.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace errorflow {
namespace obs {
namespace {

ErrorBudgetLedger AuditedLedger(double bound, double achieved) {
  ErrorBudgetLedger ledger;
  ledger.model = "mlp-a";
  ledger.format = "int8";
  ledger.admitted_bound = bound;
  ledger.achieved_error = achieved;
  ledger.audited = true;
  return ledger;
}

TEST(ErrorBudgetTest, TightnessSemantics) {
  EXPECT_DOUBLE_EQ(AuditedLedger(0.4, 0.1).tightness(), 0.25);
  EXPECT_FALSE(AuditedLedger(0.4, 0.1).violation());
  // Exactly meeting the bound is not a violation; exceeding it is.
  EXPECT_FALSE(AuditedLedger(0.4, 0.4).violation());
  EXPECT_TRUE(AuditedLedger(0.4, 0.5).violation());

  // Unaudited / degenerate ledgers have no tightness and never violate.
  ErrorBudgetLedger unaudited = AuditedLedger(0.4, 0.5);
  unaudited.audited = false;
  EXPECT_TRUE(std::isnan(unaudited.tightness()));
  EXPECT_FALSE(unaudited.violation());
  EXPECT_TRUE(std::isnan(AuditedLedger(0.0, 0.5).tightness()));
  EXPECT_FALSE(AuditedLedger(0.0, 0.5).violation());
}

// A NaN or Inf output has no tightness, but against a positive bound it
// is a violation, counted like any other.
TEST(ErrorBudgetTest, NonFiniteAchievedErrorIsViolation) {
  MetricsRegistry registry;
  std::string captured;
  Logger::Global().CaptureForTest(&captured);
  for (double achieved : {std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()}) {
    const ErrorBudgetLedger ledger = AuditedLedger(0.4, achieved);
    EXPECT_TRUE(std::isnan(ledger.tightness()));
    EXPECT_TRUE(ledger.violation());
    RecordErrorBudget(ledger, nullptr, &registry);
  }
  Logger::Global().CaptureForTest(nullptr);
  EXPECT_EQ(registry.CounterValue("errorflow.bound.violations"), 2u);
  EXPECT_EQ(registry.HistogramSnapshotOf("errorflow.bound.tightness").count,
            0u);
  EXPECT_NE(captured.find("error bound violated"), std::string::npos);

  // Without a positive bound there is nothing to violate.
  EXPECT_FALSE(AuditedLedger(0.0, std::numeric_limits<double>::infinity())
                   .violation());
}

TEST(ErrorBudgetTest, SanitizeMetricComponent) {
  EXPECT_EQ(SanitizeMetricComponent("mlp-A.v2"), "mlp_a_v2");
  EXPECT_EQ(SanitizeMetricComponent("int8"), "int8");
  EXPECT_EQ(SanitizeMetricComponent(""), "_");
}

TEST(ErrorBudgetTest, RecordAggregatesBoundMetrics) {
  MetricsRegistry registry;
  RecordErrorBudget(AuditedLedger(0.4, 0.1), nullptr, &registry);
  RecordErrorBudget(AuditedLedger(0.4, 0.8), nullptr, &registry);

  ErrorBudgetLedger admission_only = AuditedLedger(0.4, 0.0);
  admission_only.audited = false;
  RecordErrorBudget(admission_only, nullptr, &registry);

  EXPECT_EQ(registry.CounterValue("errorflow.bound.ledgers"), 3u);
  EXPECT_EQ(registry.CounterValue("errorflow.bound.audits"), 2u);
  EXPECT_EQ(registry.CounterValue("errorflow.bound.violations"), 1u);
  EXPECT_EQ(registry.HistogramSnapshotOf("errorflow.bound.tightness").count,
            2u);
  // Per model x format series, with sanitized components.
  const HistogramSnapshot per_key =
      registry.HistogramSnapshotOf("errorflow.bound.tightness.mlp_a.int8");
  EXPECT_EQ(per_key.count, 2u);
  EXPECT_DOUBLE_EQ(per_key.max, 2.0);
}

TEST(ErrorBudgetTest, ViolationEmitsStructuredWarn) {
  MetricsRegistry registry;
  std::string captured;
  Logger& logger = Logger::Global();
  logger.CaptureForTest(&captured);
  RecordErrorBudget(AuditedLedger(0.4, 0.1), nullptr, &registry);
  RecordErrorBudget(AuditedLedger(0.4, 0.8), nullptr, &registry);
  logger.CaptureForTest(nullptr);

  EXPECT_NE(captured.find("error bound violated"), std::string::npos);
  EXPECT_NE(captured.find("model=mlp-a"), std::string::npos);
  EXPECT_NE(captured.find("format=int8"), std::string::npos);
  EXPECT_NE(captured.find("tightness=2"), std::string::npos);
  // The in-bound ledger logged nothing.
  EXPECT_EQ(captured.find("tightness=0.25"), std::string::npos);
}

TEST(ErrorBudgetTest, LedgerAnnotatesSpan) {
  MetricsRegistry registry;
  TraceBuffer buffer;
  {
    TraceSpan span("serve.ledger", &buffer);
    ErrorBudgetLedger ledger = AuditedLedger(0.5, 0.75);
    ledger.compression_term = 0.3;
    ledger.quant_term = 0.2;
    RecordErrorBudget(ledger, &span, &registry);
  }
  const std::vector<TraceEvent> events = buffer.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  const std::string json = buffer.ToChromeJson();
  EXPECT_NE(json.find("\"model\": \"mlp-a\""), std::string::npos);
  EXPECT_NE(json.find("\"format\": \"int8\""), std::string::npos);
  EXPECT_NE(json.find("\"admitted_bound\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"compression_term\": 0.3"), std::string::npos);
  EXPECT_NE(json.find("\"quant_term\": 0.2"), std::string::npos);
  EXPECT_NE(json.find("\"achieved_error\": 0.75"), std::string::npos);
  EXPECT_NE(json.find("\"tightness\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"violation\": true"), std::string::npos);
}

TEST(ErrorBudgetTest, UnauditedLedgerAnnotatesAdmissionOnly) {
  MetricsRegistry registry;
  TraceBuffer buffer;
  {
    TraceSpan span("serve.ledger", &buffer);
    ErrorBudgetLedger ledger;
    ledger.model = "m";
    ledger.format = "fp16";
    ledger.admitted_bound = 0.25;
    RecordErrorBudget(ledger, &span, &registry);
  }
  const std::string json = buffer.ToChromeJson();
  EXPECT_NE(json.find("\"admitted_bound\": 0.25"), std::string::npos);
  EXPECT_EQ(json.find("\"achieved_error\""), std::string::npos);
  EXPECT_EQ(json.find("\"violation\""), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace errorflow
