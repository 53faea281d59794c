#include "io/sim_storage.h"

#include "gtest/gtest.h"

namespace errorflow {
namespace io {
namespace {

TEST(SimStorageTest, WriteReadRoundTrip) {
  SimulatedStorage storage;
  ASSERT_TRUE(storage.Write("key", "payload").ok());
  auto r = storage.Read("key");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data, "payload");
}

TEST(SimStorageTest, MissingKeyIsNotFound) {
  SimulatedStorage storage;
  auto r = storage.Read("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(SimStorageTest, OverwriteReplaces) {
  SimulatedStorage storage;
  ASSERT_TRUE(storage.Write("k", "first").ok());
  ASSERT_TRUE(storage.Write("k", "second").ok());
  EXPECT_EQ(storage.Read("k")->data, "second");
}

TEST(SimStorageTest, SizeReports) {
  SimulatedStorage storage;
  ASSERT_TRUE(storage.Write("k", std::string(1000, 'x')).ok());
  auto r = storage.Read("k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data.size(), 1000u);
  EXPECT_EQ(r->simulated_seconds, storage.ModelReadSeconds(1000));
}

TEST(SimStorageTest, TransferTimeModel) {
  StorageConfig cfg;
  cfg.read_bandwidth_bytes_per_sec = 1e9;
  cfg.latency_seconds = 1e-3;
  SimulatedStorage storage(cfg);
  // 1 GB at 1 GB/s + 1ms latency.
  EXPECT_NEAR(storage.ModelReadSeconds(1000000000), 1.001, 1e-9);
}

TEST(SimStorageTest, ReadReturnsModeledTime) {
  StorageConfig cfg;
  cfg.read_bandwidth_bytes_per_sec = 2.8e9;
  cfg.latency_seconds = 0.0;
  SimulatedStorage storage(cfg);
  const std::string payload(280000, 'a');
  ASSERT_TRUE(storage.Write("k", payload).ok());
  auto r = storage.Read("k");
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->simulated_seconds, 1e-4, 1e-9);
}

TEST(SimStorageTest, DefaultBandwidthMatchesPaperBaseline) {
  SimulatedStorage storage;
  EXPECT_DOUBLE_EQ(storage.config().read_bandwidth_bytes_per_sec, 2.8e9);
}

TEST(SimStorageTest, ContainsTracksKeys) {
  SimulatedStorage storage;
  EXPECT_FALSE(storage.Contains("a"));
  ASSERT_TRUE(storage.Write("a", "x").ok());
  EXPECT_TRUE(storage.Contains("a"));
}

TEST(SimStorageTest, WriteReportsSeconds) {
  StorageConfig cfg;
  cfg.write_bandwidth_bytes_per_sec = 1e9;
  cfg.latency_seconds = 0.0;
  SimulatedStorage storage(cfg);
  double seconds = 0.0;
  ASSERT_TRUE(storage.Write("k", std::string(500000000, 'x'), &seconds).ok());
  EXPECT_NEAR(seconds, 0.5, 1e-9);
}

}  // namespace
}  // namespace io
}  // namespace errorflow
