#include "core/pipeline.h"

#include <algorithm>
#include <string>

#include "obs/error_budget.h"
#include "obs/trace.h"
#include "quant/hardware_model.h"
#include "tensor/norms.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace errorflow {
namespace core {

namespace {

// Metric names; conventions in docs/OBSERVABILITY.md.
constexpr char kRuns[] = "errorflow.pipeline.runs";
constexpr char kBytesIn[] = "errorflow.pipeline.bytes_in";
constexpr char kBytesOut[] = "errorflow.pipeline.bytes_out";
constexpr char kFormatGauge[] = "errorflow.pipeline.format";
constexpr char kInputToleranceGauge[] = "errorflow.pipeline.input_tolerance";
constexpr char kQuantBoundGauge[] = "errorflow.pipeline.quant_bound";
constexpr char kCompressHist[] = "errorflow.pipeline.compress_seconds";
constexpr char kWriteHist[] = "errorflow.pipeline.write_seconds";
constexpr char kReadHist[] = "errorflow.pipeline.read_seconds";
constexpr char kDecompressHist[] = "errorflow.pipeline.decompress_seconds";
constexpr char kExecHist[] = "errorflow.pipeline.exec_seconds";

// Sets the io/exec/total throughput of a report, in bytes of original data
// per second. Total is min(io, exec): the phases overlap in an in-situ
// pipeline, so the slower one bounds the sustained rate.
void SetThroughput(double bytes, double io_seconds, double exec_seconds,
                   PipelineReport* out) {
  out->io_throughput = bytes / std::max(1e-12, io_seconds);
  out->exec_throughput = bytes / std::max(1e-12, exec_seconds);
  out->total_throughput = std::min(out->io_throughput, out->exec_throughput);
}

}  // namespace

InferencePipeline::InferencePipeline(nn::Model model,
                                     tensor::Shape single_input_shape,
                                     PipelineConfig config)
    : model_(std::move(model)),
      single_input_shape_(std::move(single_input_shape)),
      config_(config),
      analysis_(ProfileModel(model_, single_input_shape_)),
      compressor_(compress::MakeCompressor(config.backend)),
      storage_(config.storage) {
  model_.FoldPsn();
  flops_per_sample_ = model_.FlopsPerSample(single_input_shape_);
  int64_t elems = 1;
  for (size_t i = 1; i < single_input_shape_.size(); ++i) {
    elems *= single_input_shape_[i];
  }
  bytes_per_sample_ = elems * static_cast<int64_t>(sizeof(float));
}

AllocationPlan InferencePipeline::Plan(double qoi_tolerance) const {
  return AllocateTolerance(analysis_, qoi_tolerance, config_.norm,
                           config_.quant_fraction);
}

nn::Model* InferencePipeline::QuantizedFor(NumericFormat format) {
  auto it = quantized_cache_.find(format);
  if (it == quantized_cache_.end()) {
    quant::MaterializedModel variant = quant::Materialize(model_, {format});
    it = quantized_cache_.emplace(format, std::move(variant.model)).first;
  }
  return &it->second;
}

Result<Tensor> InferencePipeline::ExecuteQuantized(const Tensor& batch,
                                                   NumericFormat format) {
  if (batch.ndim() < 2) {
    return Status::InvalidArgument("pipeline: batch tensor required");
  }
  nn::Model* qmodel = QuantizedFor(format);
  obs::TraceSpan span("pipeline.exec");
  return qmodel->Predict(batch);
}

Result<PipelineReport> InferencePipeline::Run(const Tensor& input_batch,
                                              double qoi_tolerance) {
  if (input_batch.ndim() < 2 || input_batch.dim(0) < 1) {
    return Status::InvalidArgument(
        "pipeline: batch tensor with at least one sample required");
  }
  if (!(qoi_tolerance >= 0.0)) {
    return Status::InvalidArgument(
        "pipeline: QoI tolerance must be a number >= 0");
  }
  // Rows are samples: the leading dim of a rank-2 or rank-4 batch.
  const int64_t batch = input_batch.dim(0);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::TraceSpan run_span("pipeline.run");
  const AllocationPlan plan = Plan(qoi_tolerance);

  PipelineReport report;
  report.format = plan.format;
  report.input_tolerance = plan.input_tolerance;
  report.predicted_qoi_bound = plan.predicted_total_bound;
  report.quant_bound = plan.quant_bound;

  // Reference output: full-precision model on pristine input.
  Tensor reference;
  {
    obs::TraceSpan span("pipeline.reference");
    reference = model_.Predict(input_batch);
  }
  report.reference_qoi_norm = tensor::MaxRowNorm(
      reference.data(), batch, reference.size() / batch, config_.norm);

  // --- Reduction + storage ---
  util::Stopwatch phases;
  compress::ErrorBound bound;
  bound.norm = config_.norm;
  bound.relative = false;
  bound.tolerance = plan.input_tolerance;
  compress::Compressed compressed;
  {
    obs::TraceSpan span("pipeline.compress");
    EF_ASSIGN_OR_RETURN(compressed,
                        compressor_->Compress(input_batch, bound));
  }
  report.compress_seconds = phases.LapSeconds();
  report.original_bytes = compressed.original_bytes;
  report.compressed_bytes = static_cast<int64_t>(compressed.blob.size());
  report.compression_ratio = compressed.ratio();
  {
    obs::TraceSpan span("pipeline.write");
    EF_RETURN_IF_ERROR(storage_.Write("batch", std::move(compressed.blob)));
  }
  report.write_seconds = phases.LapSeconds();

  // --- I/O phase: simulated transfer + real decompression ---
  io::ReadResult read;
  {
    obs::TraceSpan span("pipeline.read");
    EF_ASSIGN_OR_RETURN(read, storage_.Read("batch"));
  }
  report.read_seconds = read.simulated_seconds;
  compress::Decompressed decompressed;
  {
    obs::TraceSpan span("pipeline.decompress");
    EF_ASSIGN_OR_RETURN(decompressed, compressor_->Decompress(read.data));
  }
  report.decompress_seconds =
      decompressed.seconds /
      std::max(1.0, config_.storage.decompress_parallelism);
  report.io_seconds = report.read_seconds + report.decompress_seconds;

  // --- Execution phase: quantized inference ---
  Tensor output;
  EF_ASSIGN_OR_RETURN(output,
                      ExecuteQuantized(decompressed.data, plan.format));
  const quant::ExecutionModel exec(flops_per_sample_, bytes_per_sample_);
  report.exec_seconds =
      exec.SecondsPerSample(plan.format) * static_cast<double>(batch);
  SetThroughput(static_cast<double>(report.original_bytes),
                report.io_seconds, report.exec_seconds, &report);

  // --- Achieved errors ---
  EF_CHECK(decompressed.data.size() == input_batch.size() &&
           output.size() == reference.size());
  report.achieved_input_error = tensor::MaxRowError(
      input_batch.data(), decompressed.data.data(), batch,
      input_batch.size() / batch, config_.norm);
  report.achieved_qoi_error =
      tensor::MaxRowError(reference.data(), output.data(), batch,
                          reference.size() / batch, config_.norm);

  // --- Error-budget ledger: the pipeline measures achieved QoI error
  // against the FP32 reference on every run, so each run is an audited
  // sample of errorflow.bound.tightness, annotated onto the run span.
  {
    obs::ErrorBudgetLedger ledger;
    ledger.model = model_.name().empty() ? "pipeline" : model_.name();
    ledger.format = quant::FormatToString(plan.format);
    ledger.admitted_bound = plan.predicted_total_bound;
    ledger.quant_term = plan.quant_bound;
    ledger.compression_term = plan.predicted_total_bound - plan.quant_bound;
    ledger.achieved_error = report.achieved_qoi_error;
    ledger.audited = true;
    obs::RecordErrorBudget(ledger, &run_span);
  }

  // --- Metrics: the histograms mirror the report's phase values (some
  // measured, some modeled) so aggregate sums reconcile with the reports.
  registry.GetCounter(kRuns)->Increment();
  registry.GetCounter(kBytesIn)->Increment(
      static_cast<uint64_t>(report.original_bytes));
  registry.GetCounter(kBytesOut)->Increment(
      static_cast<uint64_t>(report.compressed_bytes));
  registry.GetGauge(kFormatGauge)
      ->Set(static_cast<double>(static_cast<int>(report.format)));
  registry.GetGauge(kInputToleranceGauge)->Set(report.input_tolerance);
  registry.GetGauge(kQuantBoundGauge)->Set(report.quant_bound);
  registry.GetHistogram(kCompressHist)->Record(report.compress_seconds);
  registry.GetHistogram(kWriteHist)->Record(report.write_seconds);
  registry.GetHistogram(kReadHist)->Record(report.read_seconds);
  registry.GetHistogram(kDecompressHist)->Record(report.decompress_seconds);
  registry.GetHistogram(kExecHist)->Record(report.exec_seconds);
  return report;
}

PipelineReport PipelineReport::AggregateFromRegistry(
    const obs::MetricsRegistry& registry) {
  PipelineReport report;
  report.format = static_cast<NumericFormat>(
      static_cast<int>(registry.GaugeValue(kFormatGauge)));
  report.input_tolerance = registry.GaugeValue(kInputToleranceGauge);
  report.quant_bound = registry.GaugeValue(kQuantBoundGauge);
  report.original_bytes =
      static_cast<int64_t>(registry.CounterValue(kBytesIn));
  report.compressed_bytes =
      static_cast<int64_t>(registry.CounterValue(kBytesOut));
  if (report.compressed_bytes > 0) {
    report.compression_ratio = static_cast<double>(report.original_bytes) /
                               static_cast<double>(report.compressed_bytes);
  }
  report.compress_seconds = registry.HistogramSnapshotOf(kCompressHist).sum;
  report.write_seconds = registry.HistogramSnapshotOf(kWriteHist).sum;
  report.read_seconds = registry.HistogramSnapshotOf(kReadHist).sum;
  report.decompress_seconds =
      registry.HistogramSnapshotOf(kDecompressHist).sum;
  report.exec_seconds = registry.HistogramSnapshotOf(kExecHist).sum;
  report.io_seconds = report.read_seconds + report.decompress_seconds;
  SetThroughput(static_cast<double>(report.original_bytes),
                report.io_seconds, report.exec_seconds, &report);
  return report;
}

double PipelineReport::RelativeQoIError() const {
  if (reference_qoi_norm <= 0.0) return 0.0;
  return achieved_qoi_error / reference_qoi_norm;
}

std::string PipelineReport::Summary() const {
  std::string out;
  out += util::StrFormat("  format              : %s\n",
                         quant::FormatToString(format));
  out += util::StrFormat("  input tolerance     : %.3e  (quant bound %.3e)\n",
                         input_tolerance, quant_bound);
  out += util::StrFormat(
      "  bytes               : %s -> %s  (ratio %.2fx)\n",
      util::HumanBytes(static_cast<double>(original_bytes)).c_str(),
      util::HumanBytes(static_cast<double>(compressed_bytes)).c_str(),
      compression_ratio);
  out += util::StrFormat(
      "  phases (s)          : compress %.3e  write %.3e  read %.3e  "
      "decompress %.3e  exec %.3e\n",
      compress_seconds, write_seconds, read_seconds, decompress_seconds,
      exec_seconds);
  out += util::StrFormat(
      "  throughput          : io %s  exec %s  total %s\n",
      util::HumanThroughput(io_throughput).c_str(),
      util::HumanThroughput(exec_throughput).c_str(),
      util::HumanThroughput(total_throughput).c_str());
  if (predicted_qoi_bound > 0.0 || achieved_qoi_error > 0.0) {
    out += util::StrFormat(
        "  errors              : input %.3e  qoi %.3e  (bound %.3e)\n",
        achieved_input_error, achieved_qoi_error, predicted_qoi_bound);
  }
  return out;
}

}  // namespace core
}  // namespace errorflow
