#include "obs/trace.h"

#include <thread>

#include "gtest/gtest.h"
#include "testing/test_util.h"

namespace errorflow {
namespace obs {
namespace {

// Counts non-overlapping occurrences of `needle` in `haystack`.
int CountOccurrences(const std::string& haystack, const std::string& needle) {
  int count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(TraceTest, SpanRecordsOnDestruction) {
  TraceBuffer buffer;
  {
    TraceSpan span("unit.work", &buffer);
    EXPECT_TRUE(buffer.Snapshot().empty());
  }
  ASSERT_EQ(buffer.Snapshot().size(), 1u);
  const TraceEvent event = buffer.Snapshot()[0];
  EXPECT_EQ(event.name, "unit.work");
  EXPECT_GE(event.dur_us, 0.0);
  EXPECT_GE(event.ts_us, 0.0);
}

TEST(TraceTest, NestedSpansContainEachOther) {
  TraceBuffer buffer;
  {
    TraceSpan outer("outer", &buffer);
    {
      TraceSpan inner("inner", &buffer);
      // Burn a little time so durations are nonzero.
      double sink = 0.0;
      for (int i = 0; i < 10000; ++i) sink += i * 0.5;
      volatile double keep = sink;
      (void)keep;
    }
  }
  const std::vector<TraceEvent> events = buffer.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Snapshot sorts by start time: outer starts first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  // The outer span brackets the inner one.
  EXPECT_LE(events[0].ts_us, events[1].ts_us);
  EXPECT_GE(events[0].ts_us + events[0].dur_us,
            events[1].ts_us + events[1].dur_us);
  EXPECT_EQ(events[0].tid, events[1].tid);
}

TEST(TraceTest, EndIsIdempotent) {
  TraceBuffer buffer;
  TraceSpan span("once", &buffer);
  span.End();
  span.End();
  EXPECT_EQ(buffer.Snapshot().size(), 1u);
}

TEST(TraceTest, ChromeJsonExportRoundTrip) {
  TraceBuffer buffer;
  { TraceSpan a("phase \"a\"", &buffer); }
  { TraceSpan b("phase.b", &buffer); }
  const std::string json = buffer.ToChromeJson();

  // Shape: a JSON array of complete ("ph": "X") events with the required
  // keys, one per recorded span.
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"X\""), 2);
  EXPECT_EQ(CountOccurrences(json, "\"ts\": "), 2);
  EXPECT_EQ(CountOccurrences(json, "\"dur\": "), 2);
  EXPECT_EQ(CountOccurrences(json, "\"tid\": "), 2);
  EXPECT_EQ(CountOccurrences(json, "\"pid\": 1"), 2);
  EXPECT_NE(json.find("\"phase.b\""), std::string::npos);
  // Quotes inside names are escaped.
  EXPECT_NE(json.find("phase \\\"a\\\""), std::string::npos);
}

TEST(TraceTest, ConcurrentSpansAllRecorded) {
  TraceBuffer buffer;
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&buffer] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan span("worker.op", &buffer);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(buffer.Snapshot().size(),
            static_cast<size_t>(kThreads) * kSpansPerThread);
}

TEST(TraceTest, SummaryAggregatesByName) {
  TraceBuffer buffer;
  { TraceSpan a("alpha", &buffer); }
  { TraceSpan a("alpha", &buffer); }
  { TraceSpan b("beta", &buffer); }
  const std::string summary = buffer.Summary();
  EXPECT_NE(summary.find("alpha"), std::string::npos);
  EXPECT_NE(summary.find("count=2"), std::string::npos);
  EXPECT_NE(summary.find("beta"), std::string::npos);
}

TEST(TraceTest, SpanAnnotationsExportAsArgs) {
  TraceBuffer buffer;
  {
    TraceSpan span("serve.ledger", &buffer);
    span.Annotate("model", std::string("mlp \"a\""));
    span.Annotate("bound", 0.125);
    span.Annotate("rows", 42.0);
    span.Annotate("violation", false);
  }
  const std::vector<TraceEvent> events = buffer.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  ASSERT_EQ(events[0].args.size(), 4u);
  EXPECT_EQ(events[0].args[0].first, "model");
  EXPECT_EQ(events[0].args[0].second, "\"mlp \\\"a\\\"\"");
  EXPECT_EQ(events[0].args[1].second, "0.125");
  EXPECT_EQ(events[0].args[2].second, "42");
  EXPECT_EQ(events[0].args[3].second, "false");

  const std::string json = buffer.ToChromeJson();
  EXPECT_NE(json.find("\"args\": {\"model\": \"mlp \\\"a\\\"\", "
                      "\"bound\": 0.125, \"rows\": 42, "
                      "\"violation\": false}"),
            std::string::npos);
}

TEST(TraceTest, ControlCharactersInAnnotationsAreEscaped) {
  TraceBuffer buffer;
  {
    TraceSpan span("serve\tledger", &buffer);
    span.Annotate("model", std::string("h2\tclone\r1"));
  }
  const std::string json = buffer.ToChromeJson();
  EXPECT_NE(json.find("\"name\": \"serve\\tledger\""), std::string::npos);
  EXPECT_NE(json.find("\"model\": \"h2\\tclone\\r1\""), std::string::npos);
  EXPECT_FALSE(testing::HasRawControlByte(json)) << json;
}

TEST(TraceTest, AnnotateAfterEndIsIgnored) {
  TraceBuffer buffer;
  TraceSpan span("late", &buffer);
  span.End();
  span.Annotate("k", 1.0);
  EXPECT_TRUE(buffer.Snapshot()[0].args.empty());
}

TEST(TraceTest, CapacityWraparoundKeepsNewestAndCountsDropped) {
  TraceBuffer buffer;
  // A single thread writes one shard, so its ring holds the last
  // kShardCapacity of its events and the first 8 are overwritten.
  const int total = static_cast<int>(TraceBuffer::kShardCapacity) + 8;
  for (int i = 0; i < total; ++i) {
    TraceEvent e;
    e.name = "ev" + std::to_string(i);
    e.ts_us = static_cast<double>(i);
    buffer.Record(std::move(e));
  }
  const std::vector<TraceEvent> events = buffer.Snapshot();
  ASSERT_EQ(events.size(), TraceBuffer::kShardCapacity);
  // The newest survive, still sorted by start time.
  EXPECT_EQ(events.front().name, "ev8");
  EXPECT_EQ(events.back().name, "ev" + std::to_string(total - 1));
}

TEST(TraceTest, ConcurrentSpansWithWraparoundHammer) {
  // TSan-targeted hammer: threads emit annotated spans until each one's
  // shard ring wraps, while a reader snapshots and exports concurrently.
  TraceBuffer buffer;
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread =
      static_cast<int>(TraceBuffer::kShardCapacity) + 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&buffer, t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan span("hammer.op", &buffer);
        span.Annotate("thread", static_cast<double>(t));
        span.Annotate("i", static_cast<double>(i));
      }
    });
  }
  std::thread reader([&buffer] {
    for (int i = 0; i < 10; ++i) {
      (void)buffer.Snapshot();
      (void)buffer.ToChromeJson();
    }
  });
  for (std::thread& t : threads) t.join();
  reader.join();

  // Each thread records into its own shard, which ends full.
  const std::vector<TraceEvent> retained = buffer.Snapshot();
  EXPECT_EQ(retained.size(), kThreads * TraceBuffer::kShardCapacity);
  for (const TraceEvent& e : retained) {
    EXPECT_EQ(e.name, "hammer.op");
    EXPECT_EQ(e.args.size(), 2u);
  }
}

}  // namespace
}  // namespace obs
}  // namespace errorflow
