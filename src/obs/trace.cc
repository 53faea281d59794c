#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>

#include "obs/json.h"

namespace errorflow {
namespace obs {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point ProcessStart() {
  static const Clock::time_point start = Clock::now();
  return start;
}

// Touches the epoch early so NowMicros() is monotone from first use.
const bool kEpochInit = (ProcessStart(), true);

}  // namespace

uint32_t CurrentThreadId() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

double NowMicros() {
  (void)kEpochInit;
  return std::chrono::duration<double, std::micro>(Clock::now() -
                                                   ProcessStart())
      .count();
}

void TraceBuffer::Record(TraceEvent event) {
  Shard& shard = shards_[CurrentThreadId() % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.events.size() < kShardCapacity) {
    shard.events.push_back(std::move(event));
    return;
  }
  // Ring is full: overwrite the oldest slot in this shard.
  shard.events[shard.next] = std::move(event);
  shard.next = (shard.next + 1) % kShardCapacity;
}

std::vector<TraceEvent> TraceBuffer::Snapshot() const {
  std::vector<TraceEvent> all;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    all.insert(all.end(), shard.events.begin(), shard.events.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  return all;
}

std::string TraceBuffer::ToChromeJson() const {
  const std::vector<TraceEvent> events = Snapshot();
  std::string out = "[";
  char buf[128];
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    out += i ? ",\n " : "\n ";
    out += "{\"name\": " + JsonString(e.name) + ", \"ph\": \"X\"";
    std::snprintf(buf, sizeof(buf),
                  ", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u",
                  e.ts_us, e.dur_us, e.tid);
    out += buf;
    if (!e.args.empty()) {
      out += ", \"args\": {";
      for (size_t a = 0; a < e.args.size(); ++a) {
        if (a) out += ", ";
        // Values were rendered to JSON at Annotate() time.
        out += JsonString(e.args[a].first) + ": " + e.args[a].second;
      }
      out += "}";
    }
    out += "}";
  }
  out += "\n]\n";
  return out;
}

std::string TraceBuffer::Summary() const {
  struct Agg {
    uint64_t count = 0;
    double total_us = 0.0;
  };
  std::map<std::string, Agg> by_name;
  for (const TraceEvent& e : Snapshot()) {
    Agg& a = by_name[e.name];
    a.count++;
    a.total_us += e.dur_us;
  }
  std::string out;
  char line[192];
  for (const auto& [name, a] : by_name) {
    std::snprintf(line, sizeof(line),
                  "%-40s count=%-8llu total=%10.3f ms  mean=%10.3f ms\n",
                  name.c_str(), static_cast<unsigned long long>(a.count),
                  a.total_us / 1e3,
                  a.total_us / 1e3 / static_cast<double>(a.count));
    out += line;
  }
  return out;
}

TraceBuffer& TraceBuffer::Global() {
  static TraceBuffer* buffer = new TraceBuffer();
  return *buffer;
}

TraceSpan::TraceSpan(std::string name, TraceBuffer* buffer)
    : name_(std::move(name)), buffer_(buffer), start_us_(NowMicros()) {}

TraceSpan::~TraceSpan() { End(); }

void TraceSpan::Annotate(const std::string& key, const std::string& value) {
  if (ended_) return;
  args_.emplace_back(key, JsonString(value));
}

void TraceSpan::Annotate(const std::string& key, double value) {
  if (ended_) return;
  args_.emplace_back(key, JsonNumber(value));
}

void TraceSpan::Annotate(const std::string& key, bool value) {
  if (ended_) return;
  args_.emplace_back(key, value ? "true" : "false");
}

void TraceSpan::End() {
  if (ended_) return;
  ended_ = true;
  TraceEvent event;
  event.name = std::move(name_);
  event.ts_us = start_us_;
  event.dur_us = NowMicros() - start_us_;
  event.tid = CurrentThreadId();
  event.args = std::move(args_);
  buffer_->Record(std::move(event));
}

}  // namespace obs
}  // namespace errorflow
