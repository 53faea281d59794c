#include "core/report.h"

#include "gtest/gtest.h"
#include "nn/builders.h"

namespace errorflow {
namespace core {
namespace {

ErrorFlowAnalysis SampleAnalysis() {
  nn::MlpConfig cfg;
  cfg.name = "report-mlp";
  cfg.input_dim = 6;
  cfg.hidden_dims = {10, 10};
  cfg.output_dim = 3;
  cfg.seed = 71;
  nn::Model m = nn::BuildMlp(cfg);
  return ErrorFlowAnalysis(ProfileModel(m, {1, 6}));
}

TEST(ReportTest, ProfileReportContainsKeySections) {
  ErrorFlowAnalysis analysis = SampleAnalysis();
  const std::string report = ProfileReport(analysis);
  EXPECT_NE(report.find("report-mlp"), std::string::npos);
  EXPECT_NE(report.find("Dense(6 -> 10"), std::string::npos);
  EXPECT_NE(report.find("quantization-only QoI bounds"), std::string::npos);
  EXPECT_NE(report.find("fp16"), std::string::npos);
  EXPECT_NE(report.find("compression gain"), std::string::npos);
}

TEST(ReportTest, ResidualModelsReportShortcuts) {
  nn::ResNetConfig cfg;
  cfg.in_channels = 2;
  cfg.num_classes = 3;
  cfg.stage_channels = {4, 8};
  cfg.stage_blocks = {1, 1};
  cfg.seed = 72;
  nn::Model m = nn::BuildResNet(cfg);
  ErrorFlowAnalysis analysis(ProfileModel(m, {1, 2, 8, 8}));
  const std::string report = ProfileReport(analysis);
  EXPECT_NE(report.find("residual, identity"), std::string::npos);
  EXPECT_NE(report.find("residual, projection"), std::string::npos);
  EXPECT_NE(report.find("shortcut"), std::string::npos);
}

}  // namespace
}  // namespace core
}  // namespace errorflow
