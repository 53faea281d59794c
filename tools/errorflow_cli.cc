// errorflow — command-line front end for the ErrorFlow library.
//
//   errorflow inspect   <model.efm> --input-shape 1,9
//   errorflow bound     <model.efm> --input-shape 1,9 --input-err 1e-4
//                       [--norm linf|l2] [--format fp16] [--per-feature]
//                       [--attribution]
//   errorflow plan      <model.efm> --input-shape 1,9 --tol 1e-3
//                       [--frac 0.5] [--norm linf|l2]
//   errorflow quantize  <model.efm> --input-shape 1,9
//                       [--quantizer optq|spfq] [--calib-rows 64]
//                       [--calib-seed 1] [--norm linf|l2]
//   errorflow compress  --backend sz|zfp|mgard --tol 1e-3
//                       [--norm linf|l2] [--rel] [--size 512x512]
//   errorflow demo-train <out.efm> [--task h2|borghesi|eurosat]
//   errorflow run       [--task h2|borghesi|eurosat] [--tol 1e-3]
//                       [--backend sz|zfp|mgard] [--norm linf|l2]
//                       [--frac 0.5] [--batches 3]
//   errorflow serve-bench [--task h2|borghesi|eurosat] [--rates 200,4000]
//                       [--duration 5] [--workers 4] [--max-batch 64]
//                       [--queue-cap 1024] [--tolerances 1e-3,1e-2,1e-1]
//                       [--timeout-ms <ServerConfig default>] [--rows 8]
//                       [--strict] [--audit 0.1] [--evict-on-violation]
//                       [--models 1] [--slo-ms 0] [--min-batch 1]
//                       [--verify-variants] [--quantizer optq|spfq]
//                       [--json BENCH_serve.json]
//   errorflow net-bench [--task h2|borghesi|eurosat] [--rates 200,4000]
//                       [--phase-seconds 2] [--connections 32]
//                       [--workers 4] [--max-batch 64] [--queue-cap 256]
//                       [--rows 8] [--tol 1e-2] [--deadline-ms 0]
//                       [--timeout-ms <ServerConfig default>]
//                       [--json BENCH_net.json]
//
// `errorflow <subcommand> --help` prints the usage and exits 0 without
// running the subcommand.
//
// Model cache flag, valid with the subcommands that load a task model
// (demo-train, run, serve-bench, net-bench):
//   --model-cache-dir <dir>     model artifact cache (default:
//                               $ERRORFLOW_CACHE_DIR or ./ef_model_cache)
//
// Observability flags, valid with every subcommand:
//   --metrics-out <path.json>   dump the metrics registry on exit
//   --trace-out <path.json>     dump Chrome trace_event JSON on exit
//                               (open in chrome://tracing or Perfetto)
//   --metrics-export-dir <dir>  live exporter: periodically write
//                               <dir>/metrics.prom (Prometheus text) and
//                               <dir>/metrics.json (atomic replace)
//   --metrics-export-interval <seconds>  export period (default 5;
//                               only with --metrics-export-dir)
//   --log-level debug|info|warn|error
//   --log-json <path.jsonl>     mirror logs to a JSON-lines file
//
// Exit code 0 on success; 1 on user error, including a flag the
// subcommand does not take; 2 on internal failure.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/record_writer.h"
#include "compress/compressor.h"
#include "core/allocator.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "data/combustion.h"
#include "net/load_rig.h"
#include "net/net_server.h"
#include "nn/serialize.h"
#include "obs/exporter.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "quant/quantize_model.h"
#include "serve/server.h"
#include "tasks/tasks.h"
#include "tensor/stats.h"
#include "util/random.h"
#include "util/string_util.h"

using namespace errorflow;

namespace {

// ----- minimal flag parsing -------------------------------------------

// Every lookup records the flag name, so after a subcommand has run,
// UnreadFlags() names the flags it never asked for: misspelled or unknown
// ones, which would otherwise be ignored without a word.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;
  mutable std::set<std::string> read;

  bool Has(const std::string& name) const {
    read.insert(name);
    return flags.count(name) != 0;
  }
  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    return Has(name) ? flags.at(name) : fallback;
  }
  double GetDouble(const std::string& name, double fallback) const {
    return Has(name) ? std::atof(flags.at(name).c_str()) : fallback;
  }
  std::vector<std::string> UnreadFlags() const {
    std::vector<std::string> unread;
    for (const auto& [name, value] : flags) {
      if (read.count(name) == 0) unread.push_back(name);
    }
    return unread;
  }
};

Args ParseArgs(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    std::string tok = argv[i];
    if (tok.rfind("--", 0) == 0) {
      const std::string name = tok.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        args.flags[name] = argv[++i];
      } else {
        args.flags[name] = "true";
      }
    } else {
      args.positional.push_back(tok);
    }
  }
  return args;
}

int Fail(const char* msg) {
  std::fprintf(stderr, "error: %s\n", msg);
  return 1;
}

// ----- shared helpers ---------------------------------------------------

Result<tensor::Shape> ParseShape(const std::string& spec) {
  tensor::Shape shape;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t next = spec.find(',', pos);
    if (next == std::string::npos) next = spec.size();
    const std::string part = spec.substr(pos, next - pos);
    const int64_t dim = std::atoll(part.c_str());
    if (dim <= 0) {
      return Status::InvalidArgument("bad shape component: " + part);
    }
    shape.push_back(dim);
    pos = next + 1;
  }
  if (shape.empty()) return Status::InvalidArgument("empty shape");
  return shape;
}

Result<tensor::Norm> ParseNorm(const std::string& name) {
  if (name == "linf" || name == "Linf") return tensor::Norm::kLinf;
  if (name == "l2" || name == "L2") return tensor::Norm::kL2;
  return Status::InvalidArgument("unknown norm: " + name +
                                 " (use linf or l2)");
}

Result<quant::NumericFormat> ParseFormat(const std::string& name) {
  for (quant::NumericFormat f :
       {quant::NumericFormat::kFP32, quant::NumericFormat::kTF32,
        quant::NumericFormat::kFP16, quant::NumericFormat::kBF16,
        quant::NumericFormat::kINT8}) {
    if (name == quant::FormatToString(f)) return f;
  }
  return Status::InvalidArgument("unknown format: " + name);
}

Result<quant::WeightQuantizer> ParseQuantizer(const std::string& name) {
  for (quant::WeightQuantizer q :
       {quant::WeightQuantizer::kMaxAffine, quant::WeightQuantizer::kOptq,
        quant::WeightQuantizer::kSpfq}) {
    if (name == quant::QuantizerToString(q)) return q;
  }
  return Status::InvalidArgument("unknown quantizer: " + name +
                                 " (use max-affine|optq|spfq)");
}

Result<tasks::TaskKind> ParseTask(const std::string& name) {
  if (name == "h2") return tasks::TaskKind::kH2Combustion;
  if (name == "borghesi") return tasks::TaskKind::kBorghesiFlame;
  if (name == "eurosat") return tasks::TaskKind::kEuroSat;
  return Status::InvalidArgument("unknown task (use h2|borghesi|eurosat)");
}

Result<compress::Backend> ParseBackend(const std::string& name) {
  for (compress::Backend b : compress::AllBackends()) {
    if (name == compress::BackendToString(b)) return b;
  }
  return Status::InvalidArgument("unknown backend: " + name);
}

// The --model-cache-dir flag; empty lets GetTask resolve
// $ERRORFLOW_CACHE_DIR / ./ef_model_cache.
std::string CacheDir(const Args& args) {
  return args.Get("model-cache-dir", "");
}

Result<core::ErrorFlowAnalysis> LoadAnalysis(const std::string& path,
                                             const std::string& shape_spec) {
  EF_ASSIGN_OR_RETURN(nn::Model model, nn::LoadModel(path));
  EF_ASSIGN_OR_RETURN(tensor::Shape shape, ParseShape(shape_spec));
  return core::ErrorFlowAnalysis(core::ProfileModel(model, shape));
}

// One row per linear layer of `att`: its step, plain and quantized sigma,
// and its exact share of the bound.
void PrintLayerShares(const core::BoundAttribution& att) {
  for (const core::LayerAttribution& row : att.layers) {
    const double pct =
        att.total > 0.0 ? 100.0 * row.quant_share / att.total : 0.0;
    std::printf(
        "    [%2lld] %-26s q=%.3e  sigma=%.3f  amp=%.3f  share=%.6e "
        "(%5.1f%%)\n",
        static_cast<long long>(row.index), row.layer.substr(0, 26).c_str(),
        row.step_size, row.sigma, row.quantized_sigma, row.quant_share, pct);
  }
}

// ----- subcommands -------------------------------------------------------

int CmdInspect(const Args& args) {
  if (args.positional.empty()) return Fail("inspect: model path required");
  auto analysis =
      LoadAnalysis(args.positional[0], args.Get("input-shape", "1,9"));
  if (!analysis.ok()) return Fail(analysis.status().ToString().c_str());
  std::printf("%s", core::ProfileReport(*analysis).c_str());
  const core::BoundAttribution att = analysis->Attribution(
      0.0, tensor::Norm::kLinf, quant::NumericFormat::kFP16);
  std::printf("\n  fp16 quantization term %.3e by layer (exact shares):\n",
              att.quant_term);
  PrintLayerShares(att);
  return 0;
}

int CmdBound(const Args& args) {
  if (args.positional.empty()) return Fail("bound: model path required");
  auto analysis =
      LoadAnalysis(args.positional[0], args.Get("input-shape", "1,9"));
  if (!analysis.ok()) return Fail(analysis.status().ToString().c_str());
  auto norm = ParseNorm(args.Get("norm", "linf"));
  if (!norm.ok()) return Fail(norm.status().ToString().c_str());
  auto format = ParseFormat(args.Get("format", "fp32"));
  if (!format.ok()) return Fail(format.status().ToString().c_str());
  const double input_err = args.GetDouble("input-err", 0.0);

  std::printf("bound(|dx|_%s = %.3e, %s) = %.6e\n",
              args.Get("norm", "linf").c_str(), input_err,
              quant::FormatToString(*format),
              analysis->Bound(input_err, *norm, *format));
  if (args.Has("attribution")) {
    const core::BoundAttribution att =
        analysis->Attribution(input_err, *norm, *format);
    std::printf(
        "\nerror-budget attribution (exact additive decomposition):\n");
    std::printf("  compression-input term : %.6e  (gain %.3e x |dx|_2 "
                "%.3e)\n",
                att.compression_term, att.gain, att.input_err_l2);
    std::printf("  quantization term      : %.6e over %zu layers\n",
                att.quant_term, att.layers.size());
    PrintLayerShares(att);
    std::printf("  total                  : %.6e\n", att.total);
  }
  if (args.Has("per-feature")) {
    const size_t n = analysis->profile().final_row_norms.size();
    for (size_t k = 0; k < n; ++k) {
      std::printf("  feature %2zu: %.6e\n", k,
                  analysis->PerFeatureBound(static_cast<int64_t>(k),
                                            input_err, *norm, *format));
    }
  }
  return 0;
}

int CmdPlan(const Args& args) {
  if (args.positional.empty()) return Fail("plan: model path required");
  auto analysis =
      LoadAnalysis(args.positional[0], args.Get("input-shape", "1,9"));
  if (!analysis.ok()) return Fail(analysis.status().ToString().c_str());
  auto norm = ParseNorm(args.Get("norm", "linf"));
  if (!norm.ok()) return Fail(norm.status().ToString().c_str());
  const double tol = args.GetDouble("tol", 1e-3);

  const core::AllocationPlan plan = core::AllocateTolerance(
      *analysis, tol, *norm, args.GetDouble("frac", 0.5));
  std::printf("QoI tolerance          : %.3e (%s)\n", tol,
              args.Get("norm", "linf").c_str());
  std::printf("chosen weight format   : %s\n",
              quant::FormatToString(plan.format));
  std::printf("quantization bound     : %.3e\n", plan.quant_bound);
  std::printf("compression tolerance  : %.3e\n", plan.input_tolerance);
  std::printf("predicted total bound  : %.3e\n", plan.predicted_total_bound);
  return 0;
}

// Data-driven INT8 weight quantization (src/quant/optq.h): calibrate on a
// synthesized uniform [-1, 1] batch, print the per-layer effective steps,
// and compare the measured-step bound against the worst-case Table-I INT8
// bound, verifying both against the achieved error on a probe batch.
int CmdQuantize(const Args& args) {
  if (args.positional.empty()) return Fail("quantize: model path required");
  auto model = nn::LoadModel(args.positional[0]);
  if (!model.ok()) return Fail(model.status().ToString().c_str());
  auto shape = ParseShape(args.Get("input-shape", "1,9"));
  if (!shape.ok()) return Fail(shape.status().ToString().c_str());
  auto norm = ParseNorm(args.Get("norm", "linf"));
  if (!norm.ok()) return Fail(norm.status().ToString().c_str());
  auto quantizer = ParseQuantizer(args.Get("quantizer", "optq"));
  if (!quantizer.ok()) return Fail(quantizer.status().ToString().c_str());
  if (*quantizer == quant::WeightQuantizer::kMaxAffine) {
    return Fail("quantize: pick a data-driven quantizer (optq|spfq); "
                "max-affine is the default serving path");
  }
  const int64_t calib_rows =
      static_cast<int64_t>(args.GetDouble("calib-rows", 64));
  if (calib_rows < 1) return Fail("bad --calib-rows");

  core::ErrorFlowAnalysis analysis(core::ProfileModel(*model, *shape));
  tensor::Shape batch_shape = *shape;
  batch_shape[0] = calib_rows;
  tensor::Tensor calibration(batch_shape);
  util::Rng rng(static_cast<uint64_t>(args.GetDouble("calib-seed", 1)));
  for (int64_t i = 0; i < calibration.size(); ++i) {
    calibration[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }

  quant::MaterializedModel q = quant::Materialize(
      *model, {quant::NumericFormat::kINT8, *quantizer}, calibration);
  std::printf("quantizer     : %s (%lld calibration rows)\n",
              quant::QuantizerToString(*quantizer),
              static_cast<long long>(calib_rows));
  std::printf("%-26s %12s %10s %12s %12s\n", "layer", "shape", "calib",
              "table_step", "eff_step");
  for (const quant::LayerQuantRecord& r : q.layers) {
    char dims[32];
    std::snprintf(dims, sizeof(dims), "%lldx%lld",
                  static_cast<long long>(r.rows),
                  static_cast<long long>(r.cols));
    std::printf("%-26s %12s %10lld %12.3e %12.3e\n",
                r.layer.substr(0, 26).c_str(), dims,
                static_cast<long long>(r.calib_columns), r.table_step,
                r.effective_step);
  }

  const std::vector<double> steps = q.EffectiveSteps();
  const double table_bound =
      analysis.Bound(0.0, *norm, quant::NumericFormat::kINT8);
  const double data_bound =
      analysis.Bound(0.0, *norm, steps);
  // Probe on a fresh batch from the same distribution: both bounds must
  // cover what the quantized model actually does.
  tensor::Tensor probe(batch_shape);
  util::Rng probe_rng(0xbeefull);
  for (int64_t i = 0; i < probe.size(); ++i) {
    probe[i] = static_cast<float>(probe_rng.Uniform(-1.0, 1.0));
  }
  const tensor::Tensor ref = model->Predict(probe);
  const tensor::Tensor got = q.model.Predict(probe);
  const double achieved =
      tensor::MaxRowError(ref.data(), got.data(), ref.dim(0),
                          ref.size() / ref.dim(0), *norm);

  std::printf("\ntable-I int8 bound    : %.6e (%s)\n", table_bound,
              args.Get("norm", "linf").c_str());
  std::printf("data-driven bound     : %.6e (%.2fx tighter)\n", data_bound,
              data_bound > 0.0 ? table_bound / data_bound : 0.0);
  std::printf("achieved probe error  : %.6e  %s\n", achieved,
              achieved <= data_bound ? "(covered)" : "(VIOLATED)");
  return achieved <= data_bound ? 0 : 2;
}

int CmdCompress(const Args& args) {
  auto backend = ParseBackend(args.Get("backend", "sz"));
  if (!backend.ok()) return Fail(backend.status().ToString().c_str());
  auto norm = ParseNorm(args.Get("norm", "linf"));
  if (!norm.ok()) return Fail(norm.status().ToString().c_str());

  int64_t rows = 512, cols = 512;
  const std::string size = args.Get("size", "512x512");
  if (std::sscanf(size.c_str(), "%lldx%lld",
                  reinterpret_cast<long long*>(&rows),
                  reinterpret_cast<long long*>(&cols)) != 2 || rows <= 0 ||
      cols <= 0) {
    return Fail("bad --size (use e.g. 512x512)");
  }
  // Demo field: one H2 species slice (smooth, vortex-structured).
  const tensor::Tensor field =
      data::GenerateH2SpeciesField(rows, cols, /*seed=*/7);
  tensor::Tensor slice({rows, cols});
  std::copy(field.data(), field.data() + rows * cols, slice.data());

  compress::ErrorBound eb;
  eb.norm = *norm;
  eb.relative = args.Has("rel");
  eb.tolerance = args.GetDouble("tol", 1e-3);
  auto compressor = compress::MakeCompressor(*backend);
  auto comp = compressor->Compress(slice, eb);
  if (!comp.ok()) return Fail(comp.status().ToString().c_str());
  auto dec = compressor->Decompress(comp->blob);
  if (!dec.ok()) return Fail(dec.status().ToString().c_str());

  std::printf("backend      : %s\n", compressor->name().c_str());
  std::printf("field        : %lld x %lld (%s)\n",
              static_cast<long long>(rows), static_cast<long long>(cols),
              util::HumanBytes(static_cast<double>(slice.byte_size()))
                  .c_str());
  std::printf("ratio        : %.2fx\n", comp->ratio());
  std::printf("compress     : %s\n",
              util::HumanThroughput(slice.byte_size() / comp->seconds)
                  .c_str());
  std::printf("decompress   : %s\n",
              util::HumanThroughput(slice.byte_size() / dec->seconds)
                  .c_str());
  std::printf("achieved err : %.3e (%s)\n",
              tensor::DiffNorm(slice, dec->data, *norm),
              args.Get("norm", "linf").c_str());
  return 0;
}

int CmdDemoTrain(const Args& args) {
  if (args.positional.empty()) {
    return Fail("demo-train: output path required");
  }
  auto kind = ParseTask(args.Get("task", "h2"));
  if (!kind.ok()) return Fail(kind.status().ToString().c_str());
  tasks::TrainedTask task =
      tasks::GetTask(*kind, tasks::Regularization::kPsn, 1, CacheDir(args));
  const Status st = nn::SaveModel(task.model, args.positional[0]);
  if (!st.ok()) return Fail(st.ToString().c_str());
  std::printf("trained '%s' saved to %s\n", task.name.c_str(),
              args.positional[0].c_str());
  std::printf("input shape for inspect/bound/plan: %s\n",
              tensor::ShapeToString(task.single_input_shape).c_str());
  return 0;
}

int CmdRun(const Args& args) {
  auto kind = ParseTask(args.Get("task", "h2"));
  if (!kind.ok()) return Fail(kind.status().ToString().c_str());
  auto backend = ParseBackend(args.Get("backend", "sz"));
  if (!backend.ok()) return Fail(backend.status().ToString().c_str());
  auto norm = ParseNorm(args.Get("norm", "linf"));
  if (!norm.ok()) return Fail(norm.status().ToString().c_str());
  const double tol = args.GetDouble("tol", 1e-3);
  const int batches = static_cast<int>(args.GetDouble("batches", 3));
  if (batches <= 0) return Fail("bad --batches");

  tasks::TrainedTask task =
      tasks::GetTask(*kind, tasks::Regularization::kPsn, 1, CacheDir(args));
  core::PipelineConfig cfg;
  cfg.backend = *backend;
  cfg.norm = *norm;
  cfg.quant_fraction = args.GetDouble("frac", 0.5);
  core::InferencePipeline pipeline(std::move(task.model),
                                   task.single_input_shape, cfg);

  std::printf("pipeline: task=%s backend=%s norm=%s tol=%.3e batches=%d\n",
              args.Get("task", "h2").c_str(),
              compress::BackendToString(*backend),
              args.Get("norm", "linf").c_str(), tol, batches);
  for (int b = 0; b < batches; ++b) {
    const std::vector<tensor::Tensor> inputs =
        tasks::FreshInputBatches(task, 1, 100 + static_cast<uint64_t>(b));
    auto report = pipeline.Run(inputs[0], tol);
    if (!report.ok()) return Fail(report.status().ToString().c_str());
    std::printf("batch %d:\n%s", b, report->Summary().c_str());
  }
  const core::PipelineReport total =
      core::PipelineReport::AggregateFromRegistry();
  std::printf("aggregate over %llu run(s):\n%s",
              static_cast<unsigned long long>(
                  obs::MetricsRegistry::Global().CounterValue(
                      "errorflow.pipeline.runs")),
              total.Summary().c_str());
  return 0;
}

// Comma-separated list of positive doubles, e.g. "1e-3,1e-2".
Result<std::vector<double>> ParseDoubleList(const std::string& spec) {
  std::vector<double> values;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t next = spec.find(',', pos);
    if (next == std::string::npos) next = spec.size();
    const std::string part = spec.substr(pos, next - pos);
    const double v = std::atof(part.c_str());
    if (!(v > 0.0)) {
      return Status::InvalidArgument("bad list entry: " + part);
    }
    values.push_back(v);
    pos = next + 1;
  }
  if (values.empty()) return Status::InvalidArgument("empty list");
  return values;
}

bool WriteFileOrWarn(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return true;
}

// ----- load benches: serve-bench (in-process), net-bench (socket) -----
//
// Both drive the one open-loop rig (net::RunLoad) once per --rates entry
// and write the same BENCH records per rate, so an in-process record and a
// socket record at one rate compare directly: their latency difference is
// the network tax.

// Distinct inputs per (model, tolerance) request template.
constexpr int kBenchInputs = 4;

// The request templates the rig cycles: every model x tolerance pair over
// kBenchInputs inputs, each the first `rows` rows of a fresh task batch.
std::vector<net::SubmitFrame> BenchRequests(
    const tasks::TrainedTask& task, const std::vector<std::string>& models,
    const std::vector<double>& tolerances, int rows, uint32_t deadline_ms) {
  std::vector<net::SubmitFrame> requests;
  for (int i = 0; i < kBenchInputs; ++i) {
    const tensor::Tensor full = tasks::FreshInputBatches(
        task, 1, 17 + static_cast<uint64_t>(i))[0];
    tensor::Shape shape = full.shape();
    shape[0] = std::min<int64_t>(rows, full.dim(0));
    net::SubmitFrame request;
    request.deadline_ms = deadline_ms;
    request.input = tensor::Tensor(shape);
    std::copy(full.data(), full.data() + request.input.size(),
              request.input.data());
    for (const std::string& model : models) {
      for (double tolerance : tolerances) {
        request.model = model;
        request.qoi_tolerance = tolerance;
        requests.push_back(request);
      }
    }
  }
  return requests;
}

// The server knobs both benches share. --timeout-ms is one knob: it
// defaults to the library's ServerConfig::default_timeout and, in
// net-bench, also seeds the wire idle timeout, so the in-process deadline,
// the wire deadline and the slow-loris horizon never drift apart.
serve::ServerConfig BenchServerConfig(const Args& args, double queue_cap) {
  serve::ServerConfig cfg;
  cfg.num_workers = static_cast<int>(args.GetDouble("workers", 4));
  cfg.max_batch_rows = static_cast<int64_t>(args.GetDouble("max-batch", 64));
  cfg.max_queue_depth =
      static_cast<int64_t>(args.GetDouble("queue-cap", queue_cap));
  cfg.default_timeout = std::chrono::milliseconds(static_cast<int64_t>(
      args.GetDouble("timeout-ms",
                     static_cast<double>(cfg.default_timeout.count()))));
  return cfg;
}

// Starts a server with `task`'s model registered under every name.
Result<std::unique_ptr<serve::InferenceServer>> StartBenchServer(
    const serve::ServerConfig& cfg, const tasks::TrainedTask& task,
    const std::vector<std::string>& names) {
  auto server = std::make_unique<serve::InferenceServer>(cfg);
  for (const std::string& name : names) {
    EF_RETURN_IF_ERROR(server->RegisterModel(name, task.model.Clone(),
                                             task.single_input_shape));
  }
  EF_RETURN_IF_ERROR(server->Start());
  return server;
}

// Runs the rig once per rate over `load`'s transport (seed 1 + rate index,
// so both benches offer the same schedule), prints each summary, and adds
// the rate's records to `out`.
Status RunRates(net::LoadConfig load, const std::vector<double>& rates,
                double phase_seconds, bench::RecordWriter* out) {
  const char* transport = load.server != nullptr ? "in-process" : "socket";
  for (size_t i = 0; i < rates.size(); ++i) {
    load.phases = {{phase_seconds, rates[i]}};
    load.seed = 1 + i;
    EF_ASSIGN_OR_RETURN(net::LoadStats stats, net::RunLoad(load));
    std::printf("offered %.0f req/s (%s):\n%s", rates[i], transport,
                stats.Summary().c_str());
    const bench::Fields key = {{"transport", transport},
                               {"rate_rps", rates[i]}};
    const auto add = [&](const char* metric, double value, const char* unit) {
      out->Add(key, metric, value, unit, bench::Source::kMeasured);
    };
    add("offered_rps", stats.offered_rps, "req/s");
    add("achieved_rps", stats.achieved_rps, "req/s");
    add("submitted", stats.submitted, "count");
    add("completed", stats.completed, "count");
    add("rejected", stats.rejected, "count");
    add("backpressure", stats.backpressure, "count");
    add("deadline_shed", stats.deadline_shed, "count");
    add("unanswered", stats.unanswered, "count");
    add("overload_dropped", stats.overload_dropped, "count");
    add("p50_ms", stats.latency_p50_ms, "ms");
    add("p99_ms", stats.latency_p99_ms, "ms");
    add("mean_ms", stats.latency_mean_ms, "ms");
    add("max_ms", stats.latency_max_ms, "ms");
    add("lateness_p50_ms", stats.lateness_p50_ms, "ms");
    add("lateness_p99_ms", stats.lateness_p99_ms, "ms");
    add("rig_busy_share", stats.busy_share, "ratio");
    add("batch_rows_limit",
        obs::MetricsRegistry::Global().GaugeValue(
            "errorflow.serve.adaptive.batch_rows_limit"),
        "rows");
  }
  return Status::OK();
}

// The config both load benches record, then `extra`.
bench::Fields LoadBenchConfig(const std::string& task, int models,
                              const serve::ServerConfig& cfg, int rows,
                              const std::vector<double>& tolerances,
                              double phase_seconds,
                              const bench::Fields& extra) {
  std::vector<std::string> tolerance_list;
  for (double t : tolerances) {
    tolerance_list.push_back(util::StrFormat("%g", t));
  }
  bench::Fields config = {
      {"task", task}, {"models", models}, {"workers", cfg.num_workers},
      {"queue_cap", cfg.max_queue_depth}, {"rows_per_request", rows},
      {"tolerances", util::Join(tolerance_list, ",")},
      {"timeout_ms", static_cast<int64_t>(cfg.default_timeout.count())},
      {"phase_seconds", phase_seconds}};
  config.insert(config.end(), extra.begin(), extra.end());
  return config;
}

// The serving registry's view of a serve-bench run: batch fusion,
// admission split, adaptive batcher, variant cache and error budget.
std::string ServingRegistrySummary() {
  const obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const auto count = [&](const std::string& name) {
    return static_cast<unsigned long long>(registry.CounterValue(name));
  };
  const obs::HistogramSnapshot batches =
      registry.HistogramSnapshotOf("errorflow.serve.batch_requests");
  std::string out = util::StrFormat(
      "  batch fusion        : %llu batches, mean %.2f req/batch\n",
      static_cast<unsigned long long>(batches.count),
      batches.count > 0
          ? batches.sum / static_cast<double>(batches.count)
          : 0.0);
  out += util::StrFormat(
      "  admission (registry): %llu admitted | rejects: %llu invalid, "
      "%llu infeasible, %llu overload, %llu expired | %llu queue timeouts\n",
      count("errorflow.serve.admission.admitted"),
      count("errorflow.serve.admission.rejected_invalid"),
      count("errorflow.serve.admission.rejected_infeasible"),
      count("errorflow.serve.admission.rejected_overload"),
      count("errorflow.serve.admission.rejected_expired"),
      count("errorflow.serve.timeouts"));
  out += "  admitted by format  :";
  for (quant::NumericFormat f : quant::AllFormats()) {
    out += util::StrFormat(
        "%s %s %llu", f == quant::AllFormats().front() ? "" : ",",
        quant::FormatToString(f),
        count(std::string("errorflow.serve.admission.admitted.") +
              quant::FormatToString(f)));
  }
  out += "\n";
  const double batch_limit =
      registry.GaugeValue("errorflow.serve.adaptive.batch_rows_limit");
  const unsigned long long grows = count("errorflow.serve.adaptive.grows");
  const unsigned long long shrinks =
      count("errorflow.serve.adaptive.shrinks");
  if (grows > 0 || shrinks > 0 || batch_limit > 0.0) {
    out += util::StrFormat(
        "  adaptive batcher    : limit %.0f rows, %llu grows, %llu "
        "shrinks, %llu early sheds\n",
        batch_limit, grows, shrinks,
        count("errorflow.serve.adaptive.early_sheds"));
  }
  out += util::StrFormat(
      "  registry            : %llu quantizations, %llu hits, %llu misses, "
      "%llu evictions\n",
      count("errorflow.serve.registry.quantize_count"),
      count("errorflow.serve.registry.hits"),
      count("errorflow.serve.registry.misses"),
      count("errorflow.serve.registry.evictions"));
  const unsigned long long ledgers = count("errorflow.bound.ledgers");
  if (ledgers > 0) {
    out += util::StrFormat(
        "  error budget        : %llu ledgers, %llu audits, %llu "
        "violations, %llu variant invalidations\n",
        ledgers, count("errorflow.bound.audits"),
        count("errorflow.bound.violations"),
        count("errorflow.serve.registry.invalidations"));
    const obs::HistogramSnapshot tightness =
        registry.HistogramSnapshotOf("errorflow.bound.tightness");
    if (tightness.count > 0) {
      out += util::StrFormat(
          "  bound tightness     : p50 %.3g  p95 %.3g  max %.3g "
          "(achieved / admitted bound, %llu samples)\n",
          tightness.p50(), tightness.p95(), tightness.max,
          static_cast<unsigned long long>(tightness.count));
    }
  }
  return out;
}

// In-process open-loop load: one InferenceServer, the rig submitting
// straight into SubmitAsync at each --rates entry for --duration seconds;
// records per rate go to --json.
int CmdServeBench(const Args& args) {
  if (args.Has("concurrency")) {
    return Fail("--concurrency was replaced by --rates (open-loop req/s)");
  }
  auto kind = ParseTask(args.Get("task", "h2"));
  if (!kind.ok()) return Fail(kind.status().ToString().c_str());
  auto norm = ParseNorm(args.Get("norm", "linf"));
  if (!norm.ok()) return Fail(norm.status().ToString().c_str());
  auto tolerances = ParseDoubleList(args.Get("tolerances", "1e-3,1e-2,1e-1"));
  if (!tolerances.ok()) return Fail(tolerances.status().ToString().c_str());
  auto rates = ParseDoubleList(args.Get("rates", "200,4000"));
  if (!rates.ok()) return Fail(rates.status().ToString().c_str());
  const double duration = args.GetDouble("duration", 5.0);
  const int rows = static_cast<int>(args.GetDouble("rows", 8));
  const int num_models = static_cast<int>(args.GetDouble("models", 1));
  const double slo_ms = args.GetDouble("slo-ms", 0.0);
  const int min_batch = static_cast<int>(args.GetDouble("min-batch", 1));
  serve::ServerConfig cfg = BenchServerConfig(args, 1024);
  if (duration <= 0.0 || rows < 1 || num_models < 1) {
    return Fail("bad --duration/--rows/--models");
  }

  tasks::TrainedTask task =
      tasks::GetTask(*kind, tasks::Regularization::kPsn, 1, CacheDir(args));
  const std::string base_name = tasks::TaskKindToString(*kind);
  // --models M registers M clones of the task model; the request templates
  // cycle across them so the variant cache serves several models at once,
  // as a multi-model deployment's does.
  std::vector<std::string> model_names;
  for (int m = 0; m < num_models; ++m) {
    model_names.push_back(num_models == 1
                              ? base_name
                              : base_name + "_" + std::to_string(m));
  }

  cfg.norm = *norm;
  cfg.slo_p99_seconds = slo_ms * 1e-3;
  cfg.min_batch_rows = min_batch;
  cfg.verify_variants = args.Has("verify-variants");
  if (args.Has("strict")) {
    // No FP32 fallback: tolerances below the tightest reduced-precision
    // bound are rejected instead of served at full precision.
    cfg.allowed_formats = quant::ReducedFormats();
  }
  // Bound-violation watchdog: --audit <fraction> samples that share of
  // fused batches for FP32-reference re-execution (errorflow.bound.*).
  cfg.audit_fraction = args.GetDouble("audit", 0.0);
  cfg.evict_on_violation = args.Has("evict-on-violation");
  // --quantizer optq|spfq turns on the data-driven INT8 path: register
  // prices the calibrated bound, admission offers the extra INT8
  // candidate, and the watchdog audits it like any other variant.
  auto quantizer = ParseQuantizer(args.Get("quantizer", "max-affine"));
  if (!quantizer.ok()) return Fail(quantizer.status().ToString().c_str());
  cfg.data_driven_quantizer = *quantizer;

  std::printf(
      "serve-bench: task=%s models=%d rates=%s duration=%.1fs "
      "workers=%d max-batch=%lld rows/request=%d tolerances=%s%s "
      "audit=%.2f%s slo=%.1fms min-batch=%d%s\n",
      base_name.c_str(), num_models, args.Get("rates", "200,4000").c_str(),
      duration, cfg.num_workers, static_cast<long long>(cfg.max_batch_rows),
      rows, args.Get("tolerances", "1e-3,1e-2,1e-1").c_str(),
      args.Has("strict") ? " (strict)" : "", cfg.audit_fraction,
      cfg.evict_on_violation ? " (evict-on-violation)" : "", slo_ms,
      min_batch, cfg.verify_variants ? " (verify-variants)" : "");
  if (cfg.data_driven_quantizer != quant::WeightQuantizer::kMaxAffine) {
    std::printf("  data-driven int8: %s\n",
                quant::QuantizerToString(cfg.data_driven_quantizer));
  }

  net::LoadConfig load;
  load.requests = BenchRequests(task, model_names, *tolerances, rows, 0);
  bench::RecordWriter out(
      "serve_open_loop",
      LoadBenchConfig(base_name, num_models, cfg, rows, *tolerances,
                      duration,
                      {{"slo_ms", slo_ms}, {"min_batch_rows", min_batch},
                       {"verify_variants", cfg.verify_variants}}));
  // Metrics window: histograms and counters start at zero with the
  // server, so the summary covers the load run alone.
  obs::MetricsRegistry::Global().Reset();
  auto server = StartBenchServer(cfg, task, model_names);
  if (!server.ok()) return Fail(server.status().ToString().c_str());
  load.server = server->get();
  Status st = RunRates(load, *rates, duration, &out);
  if (st.ok()) st = (*server)->Shutdown();
  if (!st.ok()) return Fail(st.ToString().c_str());
  const serve::ModelRegistry& registry = (*server)->registry();
  std::printf("%s  variants resident   : %lld (%s)\n",
              ServingRegistrySummary().c_str(),
              static_cast<long long>(registry.variant_count()),
              util::HumanBytes(static_cast<double>(registry.variant_bytes()))
                  .c_str());

  return out.Write(args.Get("json", "BENCH_serve.json")).ok() ? 0 : 2;
}

// Socket open-loop load: an InferenceServer + NetServer pair on an
// ephemeral loopback port, the rig's clients driving it at each --rates
// entry. Rates above saturation surface shed/backpressure counts instead
// of silently inflating latency (open loop: arrivals do not wait).
int CmdNetBench(const Args& args) {
  auto kind = ParseTask(args.Get("task", "h2"));
  if (!kind.ok()) return Fail(kind.status().ToString().c_str());
  auto rates = ParseDoubleList(args.Get("rates", "200,4000"));
  if (!rates.ok()) return Fail(rates.status().ToString().c_str());
  const double phase_seconds = args.GetDouble("phase-seconds", 2.0);
  const int connections = static_cast<int>(args.GetDouble("connections", 32));
  const int rows = static_cast<int>(args.GetDouble("rows", 8));
  const double tol = args.GetDouble("tol", 1e-2);
  const int deadline_ms = static_cast<int>(args.GetDouble("deadline-ms", 0));
  const serve::ServerConfig cfg = BenchServerConfig(args, 256);
  if (phase_seconds <= 0.0 || connections < 1 || rows < 1 || tol <= 0.0 ||
      deadline_ms < 0) {
    return Fail("bad --phase-seconds/--connections/--rows/--tol");
  }

  tasks::TrainedTask task =
      tasks::GetTask(*kind, tasks::Regularization::kPsn, 1, CacheDir(args));
  const std::string model_name = tasks::TaskKindToString(*kind);
  auto server = StartBenchServer(cfg, task, {model_name});
  if (!server.ok()) return Fail(server.status().ToString().c_str());
  net::NetServerConfig net_cfg;
  net_cfg.idle_timeout = std::chrono::milliseconds(0);  // Shared knob.
  net::NetServer net(server->get(), net_cfg);
  Status st = net.Start();
  if (!st.ok()) return Fail(st.ToString().c_str());

  std::printf(
      "net-bench: task=%s port=%u connections=%d workers=%d "
      "queue-cap=%lld rows/request=%d tol=%.1e timeout=%lldms "
      "phase=%.1fs rates=%s\n",
      model_name.c_str(), net.port(), connections, cfg.num_workers,
      static_cast<long long>(cfg.max_queue_depth), rows, tol,
      static_cast<long long>(cfg.default_timeout.count()), phase_seconds,
      args.Get("rates", "200,4000").c_str());

  net::LoadConfig load;
  load.port = net.port();
  load.connections = connections;
  // A deadline of 0 defers to the server's default_timeout (the shared
  // knob). A short explicit one makes overload shedding visible as typed
  // kDeadlineExceeded frames instead of TCP-buffered latency.
  load.requests = BenchRequests(task, {model_name}, {tol}, rows,
                                static_cast<uint32_t>(deadline_ms));
  bench::RecordWriter out(
      "net_open_loop", LoadBenchConfig(model_name, 1, cfg, rows, {tol},
                                       phase_seconds,
                                       {{"connections", connections},
                                        {"deadline_ms", deadline_ms}}));
  const Status run = RunRates(load, *rates, phase_seconds, &out);
  st = net.Shutdown();
  if (st.ok()) st = (*server)->Shutdown();
  if (!st.ok()) return Fail(st.ToString().c_str());
  if (!run.ok()) {
    std::fprintf(stderr, "error: %s\n", run.ToString().c_str());
    return 2;
  }

  return out.Write(args.Get("json", "BENCH_net.json")).ok() ? 0 : 2;
}

// Applies the global observability flags; returns false on bad input.
bool SetupObservability(const Args& args) {
  const std::string level = args.Get("log-level", "");
  if (!level.empty()) {
    if (level == "debug") {
      obs::Logger::Global().SetLevel(obs::LogLevel::kDebug);
    } else if (level == "info") {
      obs::Logger::Global().SetLevel(obs::LogLevel::kInfo);
    } else if (level == "warn") {
      obs::Logger::Global().SetLevel(obs::LogLevel::kWarn);
    } else if (level == "error") {
      obs::Logger::Global().SetLevel(obs::LogLevel::kError);
    } else {
      std::fprintf(stderr, "error: bad --log-level %s\n", level.c_str());
      return false;
    }
  }
  const std::string log_json = args.Get("log-json", "");
  if (!log_json.empty() && !obs::Logger::Global().OpenJsonFile(log_json)) {
    std::fprintf(stderr, "error: cannot open --log-json %s\n",
                 log_json.c_str());
    return false;
  }
  return true;
}

// Dumps --metrics-out / --trace-out if requested (empty paths skip).
// Returns false on I/O failure.
bool ExportObservability(const std::string& metrics_out,
                         const std::string& trace_out) {
  bool ok = true;
  if (!metrics_out.empty()) {
    ok &= WriteFileOrWarn(metrics_out,
                          obs::MetricsRegistry::Global().ToJson());
  }
  if (!trace_out.empty()) {
    ok &= WriteFileOrWarn(trace_out, obs::TraceBuffer::Global().ToChromeJson());
  }
  return ok;
}

// Starts the live metrics exporter when --metrics-export-dir is given.
// Returns nullptr (and prints an error) when the directory is unusable;
// `*enabled` tells the caller whether the flag was present at all.
std::unique_ptr<obs::MetricsExporter> StartExporter(const Args& args,
                                                    bool* enabled) {
  const std::string dir = args.Get("metrics-export-dir", "");
  *enabled = !dir.empty();
  if (dir.empty()) return nullptr;
  obs::MetricsExporterOptions options;
  options.dir = dir;
  options.interval_seconds = args.GetDouble("metrics-export-interval", 5.0);
  auto exporter = std::make_unique<obs::MetricsExporter>(options);
  if (!exporter->Start()) {
    std::fprintf(stderr, "error: cannot export metrics to %s\n",
                 dir.c_str());
    return nullptr;
  }
  return exporter;
}

void PrintUsage() {
  std::printf(
      "errorflow — error-bounded scientific inference toolkit\n\n"
      "usage:\n"
      "  errorflow inspect    <model.efm> --input-shape 1,9\n"
      "  errorflow bound      <model.efm> --input-shape 1,9 --input-err "
      "1e-4 [--norm linf|l2] [--format fp16] [--per-feature] "
      "[--attribution]\n"
      "  errorflow plan       <model.efm> --input-shape 1,9 --tol 1e-3 "
      "[--frac 0.5] [--norm linf|l2]\n"
      "  errorflow quantize   <model.efm> --input-shape 1,9 "
      "[--quantizer optq|spfq] [--calib-rows 64] [--calib-seed 1] "
      "[--norm linf|l2]\n"
      "  errorflow compress   --backend sz|zfp|mgard --tol 1e-3 [--norm "
      "linf|l2] [--rel] [--size 512x512]\n"
      "  errorflow demo-train <out.efm> [--task h2|borghesi|eurosat]\n"
      "  errorflow run        [--task h2|borghesi|eurosat] [--tol 1e-3] "
      "[--backend sz|zfp|mgard] [--norm linf|l2] [--frac 0.5] "
      "[--batches 3]\n"
      "  errorflow serve-bench [--task h2|borghesi|eurosat] "
      "[--rates 200,4000] [--duration 5] [--workers 4] [--max-batch 64] "
      "[--queue-cap 1024] [--tolerances 1e-3,1e-2,1e-1] [--timeout-ms "
      "1000] [--rows 8] [--strict] [--audit 0.1] [--evict-on-violation] "
      "[--models 1] [--slo-ms 0] [--min-batch 1] [--verify-variants] "
      "[--quantizer optq|spfq] [--json BENCH_serve.json]\n"
      "  errorflow net-bench  [--task h2|borghesi|eurosat] "
      "[--rates 200,4000] [--phase-seconds 2] [--connections 32] "
      "[--workers 4] [--queue-cap 256] [--rows 8] [--tol 1e-2] "
      "[--deadline-ms 0] [--timeout-ms 1000] [--json BENCH_net.json]\n"
      "\nmodel cache (demo-train, run, serve-bench, net-bench): "
      "--model-cache-dir <dir> (default $ERRORFLOW_CACHE_DIR or "
      "./ef_model_cache)\n"
      "\nobservability (any subcommand): --metrics-out <path.json> "
      "--trace-out <path.json> --metrics-export-dir <dir> "
      "[--metrics-export-interval <seconds>] --log-level "
      "debug|info|warn|error --log-json <path.jsonl>\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 1;
  }
  const std::string cmd = argv[1];
  const Args args = ParseArgs(argc, argv, 2);
  if (args.flags.count("help") != 0) {
    PrintUsage();
    return 0;
  }
  if (!SetupObservability(args)) return 1;
  bool export_requested = false;
  std::unique_ptr<obs::MetricsExporter> exporter =
      StartExporter(args, &export_requested);
  if (export_requested && exporter == nullptr) return 1;
  const std::string metrics_out = args.Get("metrics-out", "");
  const std::string trace_out = args.Get("trace-out", "");
  int code = -1;
  if (cmd == "inspect") {
    code = CmdInspect(args);
  } else if (cmd == "bound") {
    code = CmdBound(args);
  } else if (cmd == "plan") {
    code = CmdPlan(args);
  } else if (cmd == "quantize") {
    code = CmdQuantize(args);
  } else if (cmd == "compress") {
    code = CmdCompress(args);
  } else if (cmd == "demo-train") {
    code = CmdDemoTrain(args);
  } else if (cmd == "run") {
    code = CmdRun(args);
  } else if (cmd == "serve-bench") {
    code = CmdServeBench(args);
  } else if (cmd == "net-bench") {
    code = CmdNetBench(args);
  } else if (cmd == "help" || cmd == "--help") {
    PrintUsage();
    code = 0;
  }
  if (code < 0) {
    std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
    PrintUsage();
    return 1;
  }
  if (code == 0) {
    for (const std::string& name : args.UnreadFlags()) {
      std::fprintf(stderr, "error: unknown flag --%s\n", name.c_str());
      code = 1;
    }
  }
  if (exporter != nullptr) exporter->Stop();  // Final snapshot.
  if (!ExportObservability(metrics_out, trace_out) && code == 0) code = 2;
  return code;
}
