// The two pipeline workloads.
//
// insitu-h2: the write path of Fig. 1. Every batch goes through
// InferencePipeline::Run (plan, reference forward, compress, store, read,
// decompress, quantized forward); it is the only workload that encodes in
// the timed loop.
//
// archive-eurosat: the read path. Set-up encodes an archive larger than
// one core's L2 into SimulatedStorage; the timed loop reads, decodes and
// runs the planned variant batch by batch, and never encodes.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "compress/compressor.h"
#include "core/pipeline.h"
#include "io/sim_storage.h"
#include "quant/format.h"
#include "tasks/tasks.h"

namespace perfbench {

namespace {

using errorflow::core::AllocationPlan;
using errorflow::core::InferencePipeline;
using errorflow::tensor::Tensor;
namespace compress = errorflow::compress;
namespace tasks = errorflow::tasks;

// On this model these plan fp32, fp16 and int8 respectively.
constexpr double kInsituTolerances[] = {1e-3, 1e-1, 1.0};
// 32 distinct batches of 1024 samples (36 KB each). 32 is not a multiple
// of 3, so every batch meets every tolerance over successive passes.
constexpr int kInsituBatches = 32;

// On this model these plan fp32, fp16 and int8 respectively.
constexpr double kArchiveTolerances[] = {0.3, 3.0, 30.0};
// 18 batches of 32 images (416 KB each): 7.5 MB raw, well above one core's
// 2 MB L2. Each batch's cost depends on its data; six batches per
// tolerance keep the batch-time percentiles off any single batch.
constexpr int kArchiveBatches = 18;

// Input batches of workload seed s never overlap those of seed s + 1.
uint64_t InputSeed(uint64_t seed) { return seed * 1000 + 1; }

// Largest elementwise |a - b|: the L-infinity error of the worst sample.
double MaxAbsDiff(const Tensor& a, const Tensor& b) {
  if (a.size() != b.size()) return INFINITY;
  double worst = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(static_cast<double>(a[i]) - b[i]));
  }
  return worst;
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

std::vector<Tensor> MakeInputs(tasks::TaskKind kind, int count,
                               const Options& options) {
  const tasks::TrainedTask task = tasks::GetTask(
      kind, tasks::Regularization::kPsn, kModelSeed, options.models_dir);
  return tasks::FreshInputBatches(task, count, InputSeed(options.seed));
}

// Loads the model and builds the pipeline (which profiles it), timing
// both phases.
std::unique_ptr<InferencePipeline> BuildPipeline(tasks::TaskKind kind,
                                                 const Options& options,
                                                 SetupTimes* setup) {
  const double t0 = Now();
  tasks::TrainedTask task = tasks::GetTask(
      kind, tasks::Regularization::kPsn, kModelSeed, options.models_dir);
  const double t1 = Now();
  auto pipeline = std::make_unique<InferencePipeline>(
      std::move(task.model), task.single_input_shape,
      errorflow::core::PipelineConfig{});
  const double t2 = Now();
  setup->model_load.push_back(t1 - t0);
  setup->profile.push_back(t2 - t1);
  return pipeline;
}

// Materializes the variant of every format in `formats` through the
// public execution path, on a one-sample batch of `sample_shape`.
Status Materialize(InferencePipeline* pipeline,
                   const std::vector<errorflow::quant::NumericFormat>& formats,
                   const errorflow::tensor::Shape& sample_shape,
                   SetupTimes* setup) {
  const double t0 = Now();
  const Tensor one(sample_shape);
  for (auto format : formats) {
    auto out = pipeline->ExecuteQuantized(one, format);
    if (!out.ok()) return out.status();
  }
  setup->materialize.push_back(Now() - t0);
  return Status::OK();
}

std::vector<errorflow::quant::NumericFormat> PlannedFormats(
    const InferencePipeline& pipeline, const double* tolerances, size_t n) {
  std::vector<errorflow::quant::NumericFormat> formats;
  for (size_t i = 0; i < n; ++i) {
    const auto f = pipeline.Plan(tolerances[i]).format;
    if (std::find(formats.begin(), formats.end(), f) == formats.end()) {
      formats.push_back(f);
    }
  }
  return formats;
}

// Per-call durations (seconds) from a traced replay, plus byte and FLOP
// totals for the rates.
struct LayerSamples {
  std::vector<double> plan, reference, encode, write, read, decode, forward;
  /// Per batch: the part of the batch span its children cover, and the
  /// time spent recording the spans afterwards.
  std::vector<double> children, recording;
  double raw_bytes = 0.0;
  double encoded_raw_bytes = 0.0;
  double stored_bytes = 0.0;
  double flops = 0.0;
};

// Records the batch span and its child spans, and the per-batch totals.
void RecordBatchSpans(
    Report* report, const char* batch_name,
    const std::vector<std::pair<const char*, std::pair<double, double>>>&
        calls,
    LayerSamples* samples) {
  const double start = calls.front().second.first;
  const double end = calls.back().second.second;
  const size_t parent = report->AddSpan(batch_name, -1, start, end);
  for (const auto& [name, t] : calls) {
    report->AddSpan(name, static_cast<int64_t>(parent), t.first, t.second);
  }
  const double self = SelfTime(report->spans(), parent);
  samples->children.push_back(end - start - self);
  samples->recording.push_back(Now() - end);
}

// Checks one pipeline outcome against its plan; returns achieved/bound.
double CheckBatch(double input_error, double input_tolerance,
                  double qoi_error, double qoi_bound, Report* report) {
  report->Check(input_error <= input_tolerance,
                "decompressed input error " + std::to_string(input_error) +
                    " > planned tolerance " + std::to_string(input_tolerance));
  report->Check(qoi_error <= qoi_bound,
                "QoI error " + std::to_string(qoi_error) +
                    " > predicted bound " + std::to_string(qoi_bound));
  return qoi_bound > 0.0 ? qoi_error / qoi_bound : 0.0;
}

// Times one InferencePipeline::Run and checks its report.
Result<double> TimedRun(InferencePipeline* pipeline, const Tensor& batch,
                        double tol, Report* report, double* raw,
                        double* stored, std::vector<double>* tightness) {
  const double t = Now();
  auto r = pipeline->Run(batch, tol);
  const double seconds = Now() - t;
  if (!r.ok()) return r.status();
  *raw += static_cast<double>(r->original_bytes);
  *stored += static_cast<double>(r->compressed_bytes);
  tightness->push_back(CheckBatch(r->achieved_input_error, r->input_tolerance,
                                  r->achieved_qoi_error,
                                  r->predicted_qoi_bound, report));
  return seconds;
}

// Replays the public calls InferencePipeline::Run makes, in its order, with
// one span around each, and checks the outcome like Run does.
Status TraceRunBatch(InferencePipeline* pipeline,
                     compress::Compressor* compressor,
                     errorflow::io::SimulatedStorage* storage,
                     const Tensor& batch, double tol, Report* report,
                     LayerSamples* s) {
  const double t0 = Now();
  const AllocationPlan plan = pipeline->Plan(tol);
  const double t1 = Now();
  const Tensor reference = pipeline->model().Predict(batch);
  const double t2 = Now();
  auto encoded = compressor->Compress(
      batch, compress::ErrorBound::AbsLinf(plan.input_tolerance));
  if (!encoded.ok()) return encoded.status();
  const double raw_bytes = static_cast<double>(encoded->original_bytes);
  const double stored_bytes = static_cast<double>(encoded->blob.size());
  const double t3 = Now();
  Status st = storage->Write("batch", std::move(encoded->blob));
  if (!st.ok()) return st;
  const double t4 = Now();
  auto read = storage->Read("batch");
  if (!read.ok()) return read.status();
  const double t5 = Now();
  auto decoded = compressor->Decompress(read->data);
  if (!decoded.ok()) return decoded.status();
  const double t6 = Now();
  auto out = pipeline->ExecuteQuantized(decoded->data, plan.format);
  if (!out.ok()) return out.status();
  const double t7 = Now();

  RecordBatchSpans(report, "pipeline.run",
                   {{"core.plan", {t0, t1}},
                    {"nn.reference", {t1, t2}},
                    {"compress.encode", {t2, t3}},
                    {"io.write", {t3, t4}},
                    {"io.read", {t4, t5}},
                    {"compress.decode", {t5, t6}},
                    {"nn.forward", {t6, t7}}},
                   s);
  s->plan.push_back(t1 - t0);
  s->reference.push_back(t2 - t1);
  s->encode.push_back(t3 - t2);
  s->write.push_back(t4 - t3);
  s->read.push_back(t5 - t4);
  s->decode.push_back(t6 - t5);
  s->forward.push_back(t7 - t6);
  s->raw_bytes += raw_bytes;
  s->encoded_raw_bytes += raw_bytes;
  s->stored_bytes += stored_bytes;
  s->flops +=
      2.0 *
      static_cast<double>(pipeline->model().FlopsPerSample(batch.shape())) *
      static_cast<double>(batch.dim(0));
  CheckBatch(MaxAbsDiff(batch, decoded->data), plan.input_tolerance,
             MaxAbsDiff(reference, *out), plan.predicted_total_bound, report);
  return Status::OK();
}

// Runs batch k (inputs[k % n] at tolerance tol_of(k)) through Run
// untraced and then through its traced public calls, for at least
// `min_pairs` pairs and `seconds` seconds; returns the median over pairs
// of Run's time minus its calls' time. Pairing keeps slow drift of the
// host out of the difference.
Result<double> PairedRunSelf(InferencePipeline* pipeline,
                             compress::Compressor* compressor,
                             const std::vector<Tensor>& inputs,
                             const std::function<double(size_t)>& tol_of,
                             size_t min_pairs, double seconds,
                             Report* report, LayerSamples* s) {
  errorflow::io::SimulatedStorage storage;
  std::vector<double> self;
  const double start = Now();
  for (size_t k = 0; k < min_pairs || Now() - start < seconds; ++k) {
    const Tensor& batch = inputs[k % inputs.size()];
    double raw = 0.0, stored = 0.0;
    std::vector<double> tightness;
    auto run = TimedRun(pipeline, batch, tol_of(k), report, &raw, &stored,
                        &tightness);
    if (!run.ok()) return run.status();
    Status st = TraceRunBatch(pipeline, compressor, &storage, batch,
                              tol_of(k), report, s);
    if (!st.ok()) return st;
    self.push_back(*run - s->children.back());
  }
  return Median(self);
}

// Adds every per-layer metric of a pipeline workload. `s` holds the
// traced calls (for the read side of the archive, its plan, encode and
// write samples come from set-up, where that work happens); `run_self`
// is Run's own time per batch, in seconds.
void AddPipelineLayerMetrics(const LayerSamples& s, double run_self,
                             bool encodes_in_loop, Report* report) {
  const double span_total = Sum(s.children);
  const auto share = [&](const std::vector<double>& v) {
    return span_total > 0.0 ? Sum(v) / span_total : 0.0;
  };
  report->Add("core.plan_us", Median(s.plan) * 1e6, Kind::kMeasured,
              "median Plan()");
  report->Add("core.run_self_ms", run_self * 1e3, Kind::kMeasured,
              "median over paired batches of Run minus its traced calls");
  report->Add("compress.encode_ms", Median(s.encode) * 1e3, Kind::kMeasured,
              "median Compress()");
  report->Add("compress.encode_mb_s",
              s.encoded_raw_bytes / 1e6 / std::max(1e-12, Sum(s.encode)),
              Kind::kMeasured, "raw bytes in per encode second");
  report->Add("compress.encode_share", encodes_in_loop ? share(s.encode) : 0.0,
              Kind::kMeasured,
              encodes_in_loop ? "of the traced batch time" : "set-up only");
  report->Add("compress.decode_ms", Median(s.decode) * 1e3, Kind::kMeasured,
              "median Decompress()");
  report->Add("compress.decode_mb_s",
              s.raw_bytes / 1e6 / std::max(1e-12, Sum(s.decode)),
              Kind::kMeasured, "raw bytes out per decode second");
  report->Add("compress.decode_share", share(s.decode), Kind::kMeasured,
              "of the traced batch time");
  report->Add("compress.bytes_out",
              s.stored_bytes / static_cast<double>(s.decode.size()),
              Kind::kMeasured, "mean stored bytes per batch");
  report->Add("io.write_us", Median(s.write) * 1e6, Kind::kMeasured,
              "median in-memory Write(); modeled transfer not reported");
  report->Add("io.read_us", Median(s.read) * 1e6, Kind::kMeasured,
              "median in-memory Read(); modeled transfer not reported");
  report->Add("nn.forward_ms", Median(s.forward) * 1e3, Kind::kMeasured,
              "median ExecuteQuantized()");
  report->Add("nn.forward_gflop_s",
              s.flops / 1e9 / std::max(1e-12, Sum(s.forward)),
              Kind::kComputed,
              "FLOPs computed as 2 x FlopsPerSample (MACs) x rows");
  report->Add("nn.forward_share", share(s.forward), Kind::kMeasured,
              "of the traced batch time");
  report->Add("nn.reference_ms", Median(s.reference) * 1e3, Kind::kMeasured,
              "median FP32 reference Predict()");
  report->Add("trace.overhead_ms", Median(s.recording) * 1e3,
              Kind::kMeasured, "per batch, recording its spans");
  report->Add("failed_share", report->FailedShare(), Kind::kMeasured,
              "failed checks / attempted");
}

// End-to-end metrics of a closed pipeline loop over `times` (seconds per
// batch) that moved `raw_bytes` in `elapsed` seconds.
void AddPipelineEndToEnd(const SetupTimes& setup,
                         const std::vector<double>& times, double elapsed,
                         double raw_bytes, double stored_bytes,
                         const std::vector<double>& tightness,
                         Report* report) {
  std::vector<double> ms;
  for (double t : times) ms.push_back(t * 1e3);
  report->Add("setup_s", Median(setup.total), Kind::kMeasured,
              "median of " + std::to_string(setup.total.size()) +
                  " set-ups");
  report->Add("throughput_mb_s", raw_bytes / 1e6 / elapsed, Kind::kMeasured,
              "raw field bytes analysed per wall second");
  AddPercentile(report, "batch_p50_ms", ms, 50);
  AddPercentile(report, "batch_p90_ms", ms, 90);
  report->Add("compression_ratio", raw_bytes / stored_bytes,
              Kind::kMeasured, "raw bytes / stored bytes over the run");
  report->Add("bound_tightness_p50", Median(tightness), Kind::kMeasured,
              "achieved QoI error / predicted bound, median over batches");
  report->Add("peak_rss_mb", PeakRssMb(), Kind::kMeasured, "getrusage");
}

}  // namespace

Status RunInsitu(const Options& options, Report* report) {
  RunOnOneCore();
  const std::vector<Tensor> inputs =
      MakeInputs(tasks::TaskKind::kH2Combustion, kInsituBatches, options);
  constexpr size_t kTols = std::size(kInsituTolerances);

  SetupTimes setup;
  std::unique_ptr<InferencePipeline> pipeline;
  while (MoreSetups(setup, kSetupMinSeconds)) {
    pipeline.reset();
    const double t0 = Now();
    pipeline =
        BuildPipeline(tasks::TaskKind::kH2Combustion, options, &setup);
    Status st = Materialize(
        pipeline.get(),
        PlannedFormats(*pipeline, kInsituTolerances, kTols),
        {1, inputs[0].dim(1)}, &setup);
    if (!st.ok()) return st;
    setup.total.push_back(Now() - t0);
  }

  if (options.trace) {
    // Each batch through Run, then through its traced calls.
    auto compressor = compress::MakeCompressor(compress::Backend::kSz,
                                               compress::kDefaultCodec);
    LayerSamples s;
    auto run_self = PairedRunSelf(
        pipeline.get(), compressor.get(), inputs,
        [](size_t k) { return kInsituTolerances[k % kTols]; }, 1,
        options.seconds, report, &s);
    if (!run_self.ok()) return run_self.status();
    AddSetupMetrics(setup, report);
    AddPipelineLayerMetrics(s, *run_self, /*encodes_in_loop=*/true, report);
    report->Add("quant.variants",
                static_cast<double>(pipeline->quantized_variant_count()),
                Kind::kMeasured, "variants the pipeline materialized");
    return Status::OK();
  }

  // Untraced closed loop over InferencePipeline::Run.
  std::vector<double> times;
  std::vector<double> tightness;
  double raw = 0.0;
  double stored = 0.0;
  const double loop_start = Now();
  for (size_t i = 0; Now() - loop_start < options.seconds; ++i) {
    auto t = TimedRun(pipeline.get(), inputs[i % inputs.size()],
                      kInsituTolerances[i % kTols], report, &raw, &stored,
                      &tightness);
    if (!t.ok()) return t.status();
    times.push_back(*t);
  }
  AddPipelineEndToEnd(setup, times, Now() - loop_start, raw, stored,
                      tightness, report);
  return Status::OK();
}

Status RunArchive(const Options& options, Report* report) {
  RunOnOneCore();
  const std::vector<Tensor> inputs =
      MakeInputs(tasks::TaskKind::kEuroSat, kArchiveBatches, options);
  constexpr size_t kTols = std::size(kArchiveTolerances);
  const errorflow::tensor::Shape sample_shape = {
      1, inputs[0].dim(1), inputs[0].dim(2), inputs[0].dim(3)};

  SetupTimes setup;
  std::unique_ptr<InferencePipeline> pipeline;
  auto compressor = compress::MakeCompressor(compress::Backend::kSz,
                                             compress::kDefaultCodec);
  std::unique_ptr<errorflow::io::SimulatedStorage> storage;
  std::vector<AllocationPlan> plans;
  std::vector<Tensor> references;
  std::vector<double> stored_bytes;
  // Plan, encode, write and reference timings of the last set-up.
  LayerSamples s;
  while (MoreSetups(setup, kSetupMinSeconds)) {
    pipeline.reset();
    storage = std::make_unique<errorflow::io::SimulatedStorage>();
    plans.clear();
    references.clear();
    stored_bytes.clear();
    s = LayerSamples();
    const double t0 = Now();
    pipeline = BuildPipeline(tasks::TaskKind::kEuroSat, options, &setup);
    for (int b = 0; b < kArchiveBatches; ++b) {
      const double p0 = Now();
      plans.push_back(pipeline->Plan(kArchiveTolerances[b % kTols]));
      const double p1 = Now();
      auto encoded = compressor->Compress(
          inputs[b], compress::ErrorBound::AbsLinf(plans[b].input_tolerance));
      if (!encoded.ok()) return encoded.status();
      stored_bytes.push_back(static_cast<double>(encoded->blob.size()));
      const double p2 = Now();
      Status st = storage->Write("batch/" + std::to_string(b),
                                 std::move(encoded->blob));
      if (!st.ok()) return st;
      const double p3 = Now();
      references.push_back(pipeline->model().Predict(inputs[b]));
      const double p4 = Now();
      s.plan.push_back(p1 - p0);
      s.encode.push_back(p2 - p1);
      s.write.push_back(p3 - p2);
      s.reference.push_back(p4 - p3);
      s.encoded_raw_bytes += static_cast<double>(inputs[b].byte_size());
    }
    Status st = Materialize(
        pipeline.get(),
        PlannedFormats(*pipeline, kArchiveTolerances, kTols), sample_shape,
        &setup);
    if (!st.ok()) return st;
    setup.total.push_back(Now() - t0);
  }

  if (options.trace) {
    // Traced run: the loop with one span per call, then Run pairs.
    const int64_t flops_per_sample =
        2 * pipeline->model().FlopsPerSample(sample_shape);
    const double replay_start = Now();
    for (size_t i = 0; Now() - replay_start < options.seconds; ++i) {
      const size_t b = i % inputs.size();
      const double t0 = Now();
      auto read = storage->Read("batch/" + std::to_string(b));
      if (!read.ok()) return read.status();
      const double t1 = Now();
      auto decoded = compressor->Decompress(read->data);
      if (!decoded.ok()) return decoded.status();
      const double t2 = Now();
      auto out = pipeline->ExecuteQuantized(decoded->data, plans[b].format);
      if (!out.ok()) return out.status();
      const double t3 = Now();
      RecordBatchSpans(report, "archive.batch",
                       {{"io.read", {t0, t1}},
                        {"compress.decode", {t1, t2}},
                        {"nn.forward", {t2, t3}}},
                       &s);
      s.read.push_back(t1 - t0);
      s.decode.push_back(t2 - t1);
      s.forward.push_back(t3 - t2);
      s.raw_bytes += static_cast<double>(inputs[b].byte_size());
      s.stored_bytes += stored_bytes[b];
      s.flops += static_cast<double>(flops_per_sample * inputs[b].dim(0));
      CheckBatch(MaxAbsDiff(inputs[b], decoded->data),
                 plans[b].input_tolerance, MaxAbsDiff(references[b], *out),
                 plans[b].predicted_total_bound, report);
    }

    // The loop never calls Run; core's own time comes from two passes of
    // the archive batches through Run, paired with their traced calls.
    LayerSamples run_calls;
    auto run_self = PairedRunSelf(
        pipeline.get(), compressor.get(), inputs,
        [](size_t k) {
          return kArchiveTolerances[k % kArchiveBatches % kTols];
        },
        2 * kArchiveBatches, 0.0, report, &run_calls);
    if (!run_self.ok()) return run_self.status();

    AddSetupMetrics(setup, report);
    AddPipelineLayerMetrics(s, *run_self, /*encodes_in_loop=*/false, report);
    report->Add("quant.variants",
                static_cast<double>(pipeline->quantized_variant_count()),
                Kind::kMeasured, "variants the pipeline materialized");
    return Status::OK();
  }

  // Untraced closed loop: Read -> Decompress -> ExecuteQuantized.
  std::vector<double> times;
  std::vector<double> tightness;
  double raw = 0.0;
  double stored = 0.0;
  const double loop_start = Now();
  for (size_t i = 0; Now() - loop_start < options.seconds; ++i) {
    const size_t b = i % inputs.size();
    const double t = Now();
    auto read = storage->Read("batch/" + std::to_string(b));
    if (!read.ok()) return read.status();
    auto decoded = compressor->Decompress(read->data);
    if (!decoded.ok()) return decoded.status();
    auto out = pipeline->ExecuteQuantized(decoded->data, plans[b].format);
    if (!out.ok()) return out.status();
    times.push_back(Now() - t);
    raw += static_cast<double>(inputs[b].byte_size());
    stored += stored_bytes[b];
    tightness.push_back(CheckBatch(
        MaxAbsDiff(inputs[b], decoded->data), plans[b].input_tolerance,
        MaxAbsDiff(references[b], *out), plans[b].predicted_total_bound,
        report));
  }
  AddPipelineEndToEnd(setup, times, Now() - loop_start, raw, stored,
                      tightness, report);
  return Status::OK();
}

}  // namespace perfbench
