#ifndef ERRORFLOW_BENCH_COMMON_BENCH_COMMON_H_
#define ERRORFLOW_BENCH_COMMON_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "core/error_bound.h"
#include "core/pipeline.h"
#include "tasks/tasks.h"

namespace errorflow {
namespace bench {

/// Logarithmic sweep: `points` values from 10^lo to 10^hi inclusive.
std::vector<double> LogSweep(double lo_exp, double hi_exp, int points);

/// Prints a benchmark section header.
void PrintHeader(const std::string& title);

/// Max per-sample relative QoI error between reference and perturbed
/// predictions, in the given norm (relative to the per-sample reference
/// norm; the paper's default metric).
double MaxRelativeSampleError(const tensor::Tensor& reference,
                              const tensor::Tensor& got, tensor::Norm norm);

/// Max per-sample absolute error.
double MaxSampleError(const tensor::Tensor& reference,
                      const tensor::Tensor& got, tensor::Norm norm);

/// Max per-sample norm (relative-error denominator).
double MaxSampleNorm(const tensor::Tensor& t, tensor::Norm norm);

/// The three paper tasks, trained with PSN (cached on disk).
std::vector<tasks::TrainedTask> LoadAllTasks(uint64_t seed = 1);

/// Geometric mean helper re-exported for bench tables.
double GeoMean(const std::vector<double>& v);

/// \brief One entry of the throughput model zoo (Figs. 2 and 9): standard
/// ResNets adapted for 10-class classification at 224x224, and MLPs with
/// the paper's FLOP budgets (mlp_s 0.5M, mlp_m 4.2M, mlp_l 33.7M).
struct ZooEntry {
  std::string name;
  nn::Model model;
  tensor::Shape single_input_shape;
  int64_t flops_per_sample = 0;
  int64_t bytes_per_sample = 0;
};

/// Builds the zoo. Weight values are irrelevant for throughput; models are
/// randomly initialized. ResNet50 is approximated with basic (non-
/// bottleneck) blocks at matched FLOPs — documented in DESIGN.md.
std::vector<ZooEntry> BuildModelZoo();

/// Prints the aggregate pipeline phase/throughput view rebuilt from the
/// process-global metrics registry (PipelineReport::AggregateFromRegistry)
/// plus the per-span trace summary. Pipeline bench binaries call this at
/// the end instead of re-deriving timing arithmetic per run.
void PrintObservabilitySummary();

}  // namespace bench
}  // namespace errorflow

#endif  // ERRORFLOW_BENCH_COMMON_BENCH_COMMON_H_
