#include "common/record_writer.h"

#include <cmath>
#include <limits>

#include "gtest/gtest.h"

namespace errorflow {
namespace bench {
namespace {

// The BENCH envelope byte for byte: host keys, config, key fields in the
// order given, an escaped quote and tab, a non-finite value as null, both
// sources, and records in the order added.
TEST(RecordWriterTest, GoldenBytes) {
  RecordWriter writer("golden", {{"backend", "sz"}, {"threads", 1}});
  writer.Add({{"shape", "a\"b\tc"}, {"batch", int64_t{32}}}, "fwd_ms", 0.25,
             "ms", Source::kMeasured);
  writer.Add({{"tol", 1e-3}, {"strict", true}}, "speedup",
             std::numeric_limits<double>::infinity(), "x", Source::kModeled);
  writer.Add({}, "ratio", std::nan(""), "x", Source::kMeasured);
  writer.Add({{"shape", "z"}}, "count", 60061, "count", Source::kMeasured);

  const Host host{4, "avx2 fma", "avx2+fma simd, 4 threads"};
  EXPECT_EQ(writer.ToJson(host),
            R"({
  "bench": "golden",
  "host": {"cores": 4, "isa": "avx2 fma", "kernels": "avx2+fma simd, 4 threads"},
  "config": {"backend": "sz", "threads": 1},
  "records": [
    {"key": {"shape": "a\"b\tc", "batch": 32}, "metric": "fwd_ms", "value": 0.25, "unit": "ms", "source": "measured"},
    {"key": {"tol": 0.001, "strict": true}, "metric": "speedup", "value": null, "unit": "x", "source": "modeled"},
    {"key": {}, "metric": "ratio", "value": null, "unit": "x", "source": "measured"},
    {"key": {"shape": "z"}, "metric": "count", "value": 60061, "unit": "count", "source": "measured"}
  ]
}
)");
}

TEST(RecordWriterTest, WriteToMissingDirectoryFails) {
  RecordWriter writer("unwritable", {});
  EXPECT_FALSE(writer.Write("/nonexistent/dir/x.json").ok());
}

}  // namespace
}  // namespace bench
}  // namespace errorflow
