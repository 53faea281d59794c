#ifndef ERRORFLOW_BENCH_COMMON_RECORD_WRITER_H_
#define ERRORFLOW_BENCH_COMMON_RECORD_WRITER_H_

#include <concepts>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace errorflow {
namespace bench {

/// The kernel-relevant ISA flags this CPU reports in /proc/cpuinfo
/// ("avx2 fma avx512f f16c amx_tile", those present).
std::string HostIsaFlags();

/// The host that produced a BENCH file. The field names match the
/// `provenance` object perfbench writes.
struct Host {
  unsigned cores = 0;
  std::string isa;      ///< HostIsaFlags().
  std::string kernels;  ///< tensor::KernelDescription().

  /// This host, with the kernel path as it stands now.
  static Host Current();
};

/// One JSON value of a config or record key, rendered on construction.
/// The constructors are implicit so that Fields read {{"name", value}}.
class JsonValue {
 public:
  JsonValue(const char* s);
  JsonValue(const std::string& s);
  JsonValue(double v);
  JsonValue(bool v);
  template <std::integral T>
  JsonValue(T v) : json_(std::to_string(v)) {}

  const std::string& json() const { return json_; }

 private:
  std::string json_;
};

/// Named values, written as one JSON object in this order.
using Fields = std::vector<std::pair<std::string, JsonValue>>;

/// Where a record's value comes from: observed on the host, or produced by
/// a model (quant::ExecutionModel's GPU timings, an error bound) instead.
enum class Source { kMeasured, kModeled };

/// \brief The one writer of BENCH_*.json files:
///
///   {"bench": ..., "host": {"cores", "isa", "kernels"}, "config": {...},
///    "records": [{"key": {...}, "metric", "value", "unit", "source"}]}
///
/// One record holds one number. The key says which case of the sweep it
/// belongs to (shape, dataset, rate, ...); records keep the order they
/// were added in. Values are rendered with obs::JsonNumber, so a
/// non-finite value is written as null.
class RecordWriter {
 public:
  RecordWriter(std::string bench, const Fields& config);

  void Add(const Fields& key, const std::string& metric, double value,
           const std::string& unit, Source source);

  /// The file's bytes, as measured on `host`.
  std::string ToJson(const Host& host) const;

  /// Writes ToJson(Host::Current()) to `path` and prints "wrote <path>";
  /// on failure prints the error to stderr instead and returns it.
  Status Write(const std::string& path) const;

 private:
  std::string bench_;
  std::string config_;
  std::string records_;
};

}  // namespace bench
}  // namespace errorflow

#endif  // ERRORFLOW_BENCH_COMMON_RECORD_WRITER_H_
