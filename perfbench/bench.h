// Shared pieces of the benchmark binary: options, the metric report and
// the span recorder. Workloads live in pipelines.cc and wire.cc.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"
#include "util/result.h"

namespace perfbench {

using errorflow::Result;
using errorflow::Status;

/// Set-up runs at least this many times per run, and the pipelines keep
/// repeating it until kSetupMinSeconds have passed; `setup_s` is the
/// median.
inline constexpr size_t kSetupRepeats = 3;
inline constexpr double kSetupMinSeconds = 0.5;

/// The model every workload serves is trained with this seed, so the
/// workload seed moves only the inputs and the arrival schedule.
inline constexpr uint64_t kModelSeed = 1;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Model cache the workloads load from (filled by --prepare).
  std::string models_dir;
  /// Where a traced run writes its spans.
  std::string out_dir;
  /// Revision of the sources under test, as the launcher found it.
  std::string source_rev;
};

/// Seconds on the steady clock since the first call in this process.
double Now();

/// Whether a number came from a clock or counter (measured) or from
/// arithmetic on model constants such as FLOP counts (computed).
enum class Kind { kMeasured, kComputed };

/// Metrics, check outcomes and spans of one run.
class Report {
 public:
  /// Records a metric; its unit comes from the benchmark's metric table.
  void Add(const std::string& name, double value, Kind kind,
           std::string note = "");

  /// Counts one correctness check; a failed one also keeps its message.
  void Check(bool ok, const std::string& what);
  /// Counts operations that were attempted without a check of their own.
  void CountAttempted(int64_t n) { attempted_ += n; }
  /// Marks the run invalid (e.g. the load generator ran late).
  void Invalidate(const std::string& why);

  /// Failed checks over attempted operations so far.
  double FailedShare() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }

  /// Records a closed span and returns its index.
  size_t AddSpan(const std::string& name, int64_t parent, double start,
                 double end);
  const std::vector<Span>& spans() const { return spans_; }

  /// Prints the metric table, then the one-line JSON result. `wire`
  /// selects the wire workload's metric set over the pipelines'. Returns
  /// the process exit code: 0 only when every check passed and the run is
  /// valid and complete.
  int Print(bool wire, bool trace) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    Kind kind = Kind::kMeasured;
    std::string note;
  };

  std::vector<Metric> metrics_;
  std::vector<std::string> problems_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool valid_ = true;
  std::vector<Span> spans_;
};

/// Adds `name` as the p-th percentile of `samples`, noting the sample
/// count, how many lie beyond, and whether that meets kMinSamplesBeyond.
void AddPercentile(Report* report, const std::string& name,
                   const std::vector<double>& samples, double p);

/// Durations, in seconds, of each set-up repetition and of its phases.
/// A phase the workload does not have stays empty.
struct SetupTimes {
  std::vector<double> total;
  std::vector<double> model_load;
  std::vector<double> profile;
  std::vector<double> materialize;
  std::vector<double> server_start;
};

/// Whether another set-up repetition is due: fewer than kSetupRepeats so
/// far, or less than `min_seconds` spent in them.
bool MoreSetups(const SetupTimes& setup, double min_seconds);

/// Adds the setup.* metrics the workload has and quant.materialize_ms
/// (medians over the repetitions).
void AddSetupMetrics(const SetupTimes& setup, Report* report);

/// Moves the calling thread onto one allowed CPU and makes the kernels
/// single-threaded, so a pipeline run times the code on one core rather
/// than how many of a shared host's CPUs happen to be free.
void RunOnOneCore();

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Host and build fingerprint as one JSON object.
std::string ProvenanceJson(const Options& options);

/// Writes the recorded spans (Chrome trace-event format) and provenance.
Status WriteTrace(const Options& options, const Report& report);

Status RunInsitu(const Options& options, Report* report);
Status RunArchive(const Options& options, Report* report);
Status RunWire(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
