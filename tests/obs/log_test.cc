#include "obs/log.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "gtest/gtest.h"
#include "testing/test_util.h"

namespace errorflow {
namespace obs {
namespace {

// A logger whose text lines go to a string capture instead of stderr.
class CapturedLogger {
 public:
  CapturedLogger() { logger_.CaptureForTest(&captured_); }
  Logger& logger() { return logger_; }
  const std::string& text() const { return captured_; }

 private:
  Logger logger_;
  std::string captured_;
};

TEST(LogTest, LevelNames) {
  EXPECT_STREQ(LogLevelName(LogLevel::kDebug), "debug");
  EXPECT_STREQ(LogLevelName(LogLevel::kError), "error");
}

TEST(LogTest, DefaultLevelDropsDebug) {
  CapturedLogger cap;
  EXPECT_EQ(cap.logger().level(), LogLevel::kInfo);
  cap.logger().Write(LogLevel::kDebug, "hidden");
  cap.logger().Write(LogLevel::kInfo, "shown");
  EXPECT_EQ(cap.text().find("hidden"), std::string::npos);
  EXPECT_NE(cap.text().find("[info] shown"), std::string::npos);
}

TEST(LogTest, LevelFiltering) {
  CapturedLogger cap;
  cap.logger().SetLevel(LogLevel::kWarn);
  cap.logger().Write(LogLevel::kDebug, "d");
  cap.logger().Write(LogLevel::kInfo, "i");
  cap.logger().Write(LogLevel::kWarn, "w");
  cap.logger().Write(LogLevel::kError, "e");
  EXPECT_EQ(cap.text().find("[debug]"), std::string::npos);
  EXPECT_EQ(cap.text().find("[info]"), std::string::npos);
  EXPECT_NE(cap.text().find("[warn] w"), std::string::npos);
  EXPECT_NE(cap.text().find("[error] e"), std::string::npos);

  cap.logger().SetLevel(LogLevel::kDebug);
  cap.logger().Write(LogLevel::kDebug, "now visible");
  EXPECT_NE(cap.text().find("[debug] now visible"), std::string::npos);
}

TEST(LogTest, EnabledMatchesLevel) {
  Logger logger;
  logger.SetLevel(LogLevel::kWarn);
  EXPECT_FALSE(logger.Enabled(LogLevel::kInfo));
  EXPECT_TRUE(logger.Enabled(LogLevel::kWarn));
  EXPECT_TRUE(logger.Enabled(LogLevel::kError));
}

TEST(LogTest, StructuredFieldsInTextLine) {
  CapturedLogger cap;
  cap.logger().Write(LogLevel::kInfo, "compressed",
                     {{"backend", "sz"}, {"ratio", "12.5"}});
  EXPECT_NE(cap.text().find("compressed backend=sz ratio=12.5"),
            std::string::npos);
}

TEST(LogTest, JsonLinesSink) {
  const std::string path = ::testing::TempDir() + "/ef_log_test.jsonl";
  {
    CapturedLogger cap;
    Logger& logger = cap.logger();
    ASSERT_TRUE(logger.OpenJsonFile(path));
    logger.SetLevel(LogLevel::kInfo);
    logger.Write(LogLevel::kDebug, "filtered out");
    logger.Write(LogLevel::kInfo, "first", {{"k", "v"}});
    logger.Write(LogLevel::kError, "with \"quotes\"");
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"level\": \"info\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"msg\": \"first\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"k\": \"v\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"ts_us\": "), std::string::npos);
  EXPECT_NE(lines[1].find("\\\"quotes\\\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(LogTest, ControlCharactersInJsonLinesAreEscaped) {
  const std::string path = ::testing::TempDir() + "/ef_log_ctrl_test.jsonl";
  {
    CapturedLogger cap;
    ASSERT_TRUE(cap.logger().OpenJsonFile(path));
    cap.logger().Write(LogLevel::kWarn, "column\tsplit\r7");
    cap.logger().Write(LogLevel::kWarn, "fields", {{"k\t", "v\x01"}});
  }

  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"msg\": \"column\\tsplit\\r7\""),
            std::string::npos);
  EXPECT_NE(lines[1].find("\"k\\t\": \"v\\u0001\""), std::string::npos);
  for (const std::string& l : lines) {
    EXPECT_FALSE(testing::HasRawControlByte(l)) << l;
  }
  std::remove(path.c_str());
}

TEST(LogTest, LogfFormatsThroughGlobal) {
  std::string captured;
  Logger& global = Logger::Global();
  global.CaptureForTest(&captured);
  Logf(LogLevel::kInfo, "value %d and %s", 42, "text");
  Logf(LogLevel::kDebug, "dropped %d", 1);
  global.CaptureForTest(nullptr);
  EXPECT_NE(captured.find("[info] value 42 and text"), std::string::npos);
  EXPECT_EQ(captured.find("dropped"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace errorflow
