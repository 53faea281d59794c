#include "quant/grouped.h"

#include <cmath>

#include "gtest/gtest.h"
#include "quant/step_size.h"
#include "tensor/stats.h"
#include "testing/test_util.h"

namespace errorflow {
namespace quant {
namespace {

using tensor::Tensor;

// Matrix with strongly heterogeneous row scales — the case grouped
// quantization exists for.
Tensor HeterogeneousMatrix(uint64_t seed) {
  Tensor w = testing::RandomTensor({32, 48}, seed, 1.0);
  for (int64_t r = 0; r < w.dim(0); ++r) {
    const float scale = r < 4 ? 10.0f : 0.1f;  // A few huge rows.
    for (int64_t c = 0; c < w.dim(1); ++c) w.at(r, c) *= scale;
  }
  return w;
}

double MaxAbsError(const Tensor& a, const Tensor& b) {
  double worst = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(static_cast<double>(a[i]) - b[i]));
  }
  return worst;
}

TEST(GroupedTest, SchemeNames) {
  EXPECT_STREQ(GroupSchemeToString(GroupScheme::kPerTensor), "per-tensor");
  EXPECT_STREQ(GroupSchemeToString(GroupScheme::kPerRow), "per-row");
  EXPECT_STREQ(GroupSchemeToString(GroupScheme::kPerColumn), "per-column");
  EXPECT_STREQ(GroupSchemeToString(GroupScheme::kBlock), "block");
}

TEST(GroupedTest, GroupCounts) {
  Tensor w = testing::RandomTensor({16, 24}, 1);
  GroupedConfig cfg;
  cfg.scheme = GroupScheme::kPerTensor;
  Tensor copy = w;
  EXPECT_EQ(QuantizeDequantizeInt8Grouped(&copy, cfg), 1);
  cfg.scheme = GroupScheme::kPerRow;
  copy = w;
  EXPECT_EQ(QuantizeDequantizeInt8Grouped(&copy, cfg), 16);
  cfg.scheme = GroupScheme::kPerColumn;
  copy = w;
  EXPECT_EQ(QuantizeDequantizeInt8Grouped(&copy, cfg), 24);
  cfg.scheme = GroupScheme::kBlock;
  cfg.block_rows = 8;
  cfg.block_cols = 8;
  copy = w;
  EXPECT_EQ(QuantizeDequantizeInt8Grouped(&copy, cfg), 6);
}

TEST(GroupedTest, PerTensorMatchesUniformInt8) {
  Tensor w = testing::RandomTensor({20, 20}, 2);
  Tensor grouped = w;
  GroupedConfig cfg;
  cfg.scheme = GroupScheme::kPerTensor;
  QuantizeDequantizeInt8Grouped(&grouped, cfg);
  // Same step scale as the uniform path (zero-point conventions differ by
  // at most one step).
  Tensor uniform = w;
  QuantizeDequantizeInt8(&uniform);
  const double step =
      AverageStepSize(w, NumericFormat::kINT8);
  EXPECT_LE(MaxAbsError(grouped, uniform), 2.0 * step);
}

TEST(GroupedTest, ErrorBoundedByGroupStep) {
  const Tensor w = HeterogeneousMatrix(3);
  for (GroupScheme scheme :
       {GroupScheme::kPerTensor, GroupScheme::kPerRow,
        GroupScheme::kPerColumn, GroupScheme::kBlock}) {
    GroupedConfig cfg;
    cfg.scheme = scheme;
    Tensor q = w;
    QuantizeDequantizeInt8Grouped(&q, cfg);
    // Per-element error <= half the *largest* group step; per-row groups
    // make this the row's own step, checked via the global max range.
    double max_range = 0.0;
    for (int64_t r = 0; r < w.dim(0); ++r) {
      float mn = w.at(r, 0), mx = w.at(r, 0);
      for (int64_t c = 0; c < w.dim(1); ++c) {
        mn = std::min(mn, w.at(r, c));
        mx = std::max(mx, w.at(r, c));
      }
      max_range = std::max(max_range, static_cast<double>(mx - mn));
    }
    // Any grouping's step never exceeds the full tensor range / 255.
    const double worst_step =
        (tensor::Summarize(w).max - tensor::Summarize(w).min) / 255.0;
    EXPECT_LE(MaxAbsError(w, q), worst_step * 0.5 + 1e-6)
        << GroupSchemeToString(scheme);
  }
}

TEST(GroupedTest, FinerGroupsSmallerError) {
  const Tensor w = HeterogeneousMatrix(4);
  auto rms_error = [&w](GroupScheme scheme) {
    GroupedConfig cfg;
    cfg.scheme = scheme;
    Tensor q = w;
    QuantizeDequantizeInt8Grouped(&q, cfg);
    double acc = 0.0;
    for (int64_t i = 0; i < w.size(); ++i) {
      const double d = static_cast<double>(q[i]) - w[i];
      acc += d * d;
    }
    return std::sqrt(acc / static_cast<double>(w.size()));
  };
  const double per_tensor = rms_error(GroupScheme::kPerTensor);
  const double per_row = rms_error(GroupScheme::kPerRow);
  // Row-heterogeneous data: per-row must be much better.
  EXPECT_LT(per_row, per_tensor * 0.5);
}

TEST(GroupedTest, StepSizeTracksScheme) {
  const Tensor w = HeterogeneousMatrix(5);
  GroupedConfig per_tensor;
  per_tensor.scheme = GroupScheme::kPerTensor;
  GroupedConfig per_row;
  per_row.scheme = GroupScheme::kPerRow;
  const double q_tensor = GroupedInt8StepSize(w, per_tensor);
  const double q_row = GroupedInt8StepSize(w, per_row);
  EXPECT_LT(q_row, q_tensor);
  // Per-tensor grouped step uses range/256 like Table I's formula
  // (within the 255-vs-256 convention).
  EXPECT_NEAR(q_tensor, AverageStepSize(w, NumericFormat::kINT8),
              q_tensor * 0.01);
}

TEST(GroupedTest, ConstantGroupsExact) {
  Tensor w = testing::Full({8, 8}, 2.5f);
  GroupedConfig cfg;
  cfg.scheme = GroupScheme::kPerRow;
  QuantizeDequantizeInt8Grouped(&w, cfg);
  for (int64_t i = 0; i < w.size(); ++i) EXPECT_EQ(w[i], 2.5f);
}

TEST(GroupedTest, BlockClampsToMatrixExtent) {
  Tensor w = testing::RandomTensor({3, 5}, 6);
  GroupedConfig cfg;
  cfg.scheme = GroupScheme::kBlock;
  cfg.block_rows = 100;
  cfg.block_cols = 100;
  Tensor copy = w;
  EXPECT_EQ(QuantizeDequantizeInt8Grouped(&copy, cfg), 1);
}

}  // namespace
}  // namespace quant
}  // namespace errorflow
