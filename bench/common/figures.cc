#include "common/figures.h"

#include <cmath>
#include <cstdio>

#include "data/borghesi.h"
#include "data/combustion.h"
#include "data/eurosat.h"
#include "quant/quantize_model.h"
#include "tensor/stats.h"

namespace errorflow {
namespace bench {

namespace {

using core::ErrorFlowAnalysis;
using core::ProfileModel;
using quant::NumericFormat;
using tasks::TrainedTask;
using tensor::Norm;
using tensor::Tensor;

const char* NormLabel(Norm norm) {
  return norm == Norm::kL2 ? "L2" : "L-infinity";
}

}  // namespace

Tensor LargeInputBatch(const tasks::TrainedTask& task, uint64_t seed) {
  switch (task.kind) {
    case tasks::TaskKind::kH2Combustion: {
      data::Dataset ds = data::MakeH2CombustionDataset(192, 192, seed);
      return task.input_norm.Apply(ds.inputs);  // ~1.3 MB
    }
    case tasks::TaskKind::kBorghesiFlame: {
      data::Dataset ds = data::MakeBorghesiDataset(160, 160, seed);
      return task.input_norm.Apply(ds.inputs);  // ~1.3 MB
    }
    case tasks::TaskKind::kEuroSat: {
      data::EuroSatConfig cfg;
      cfg.n_images = 96;
      cfg.height = 16;
      cfg.width = 16;
      cfg.seed = seed;
      return task.input_norm.Apply(data::GenerateEuroSat(cfg).inputs);
    }
  }
  return Tensor();
}

void RunCompressionErrorFigure(Norm norm) {
  PrintHeader(std::string("Fig. ") + (norm == Norm::kLinf ? "3" : "4") +
              " - compression error: bound prediction vs achieved (" +
              NormLabel(norm) + ")");

  for (tasks::TaskKind kind :
       {tasks::TaskKind::kH2Combustion, tasks::TaskKind::kBorghesiFlame,
        tasks::TaskKind::kEuroSat}) {
    TrainedTask psn = tasks::GetTask(kind, tasks::Regularization::kPsn);
    TrainedTask base =
        tasks::GetTask(kind, tasks::Regularization::kBaseline);
    TrainedTask wd =
        tasks::GetTask(kind, tasks::Regularization::kWeightDecay);

    ErrorFlowAnalysis psn_an(ProfileModel(psn.model, psn.single_input_shape));
    ErrorFlowAnalysis base_an(
        ProfileModel(base.model, base.single_input_shape));
    ErrorFlowAnalysis wd_an(ProfileModel(wd.model, wd.single_input_shape));

    const std::vector<Tensor> batches = FreshInputBatches(psn, 5);
    // Relative-error denominator: typical output magnitude of the PSN
    // model on fresh data.
    const Tensor ref0 = psn.model.Predict(batches[0]);
    const double out_norm = MaxSampleNorm(ref0, norm);
    const double in_norm = MaxSampleNorm(batches[0], norm);

    std::printf("\n[%s]  global QoI relative error (%s)\n",
                tasks::TaskKindToString(kind), NormLabel(norm));
    std::printf("%-10s %12s %12s %12s | %12s %12s %12s\n", "input_rel",
                "bound(psn)", "bound(base)", "bound(wd)", "achieved_gm",
                "ach_min", "ach_max");

    for (double input_rel : LogSweep(-7, -3, 5)) {
      const double input_abs = input_rel * in_norm;
      const double b_psn =
          psn_an.Bound(input_abs, norm, NumericFormat::kFP32) / out_norm;
      const double b_base =
          base_an.Bound(input_abs, norm, NumericFormat::kFP32) / out_norm;
      const double b_wd =
          wd_an.Bound(input_abs, norm, NumericFormat::kFP32) / out_norm;

      std::vector<double> achieved;
      for (compress::Backend backend : compress::AllBackends()) {
        auto compressor = compress::MakeCompressor(backend);
        if (!compressor->SupportsNorm(norm)) continue;
        for (const Tensor& batch : batches) {
          compress::ErrorBound eb;
          eb.norm = norm;
          eb.relative = false;
          eb.tolerance = input_abs;
          auto comp = compressor->Compress(batch, eb);
          if (!comp.ok()) continue;
          auto dec = compressor->Decompress(comp->blob);
          if (!dec.ok()) continue;
          const Tensor ref = psn.model.Predict(batch);
          const Tensor out = psn.model.Predict(dec->data);
          achieved.push_back(MaxRelativeSampleError(ref, out, norm));
        }
      }
      double mn = 1e300, mx = 0.0;
      for (double a : achieved) {
        mn = std::min(mn, a);
        mx = std::max(mx, a);
      }
      std::printf("%-10.0e %12.3e %12.3e %12.3e | %12.3e %12.3e %12.3e\n",
                  input_rel, b_psn, b_base, b_wd, GeoMean(achieved), mn, mx);
    }

    // Per-feature QoI error at relative input error 1e-5 (as the paper).
    const double input_abs = 1e-5 * in_norm;
    const core::ModelProfile& profile = psn_an.profile();
    if (!profile.final_row_norms.empty()) {
      std::printf("  per-feature QoI error @ input rel 1e-5:\n");
      // Achieved per-feature errors, max over batches x compressors.
      const int64_t features =
          static_cast<int64_t>(profile.final_row_norms.size());
      std::vector<double> feat_achieved(static_cast<size_t>(features), 0.0);
      std::vector<double> feat_ref(static_cast<size_t>(features), 0.0);
      for (compress::Backend backend : compress::AllBackends()) {
        auto compressor = compress::MakeCompressor(backend);
        if (!compressor->SupportsNorm(norm)) continue;
        for (const Tensor& batch : batches) {
          compress::ErrorBound eb;
          eb.norm = norm;
          eb.relative = false;
          eb.tolerance = input_abs;
          auto comp = compressor->Compress(batch, eb);
          if (!comp.ok()) continue;
          auto dec = compressor->Decompress(comp->blob);
          if (!dec.ok()) continue;
          const Tensor ref = psn.model.Predict(batch);
          const Tensor out = psn.model.Predict(dec->data);
          for (int64_t s = 0; s < ref.dim(0); ++s) {
            for (int64_t k = 0; k < features; ++k) {
              feat_achieved[static_cast<size_t>(k)] = std::max(
                  feat_achieved[static_cast<size_t>(k)],
                  std::fabs(static_cast<double>(ref.at(s, k)) -
                            out.at(s, k)));
              feat_ref[static_cast<size_t>(k)] =
                  std::max(feat_ref[static_cast<size_t>(k)],
                           std::fabs(static_cast<double>(ref.at(s, k))));
            }
          }
        }
      }
      const int64_t shown = std::min<int64_t>(features, 10);
      for (int64_t k = 0; k < shown; ++k) {
        const double denom =
            std::max(feat_ref[static_cast<size_t>(k)], 1e-30);
        const double bound =
            psn_an.PerFeatureBound(k, input_abs, norm,
                                   NumericFormat::kFP32) /
            denom;
        std::printf("    feature %2lld: bound %10.3e  achieved %10.3e  %s\n",
                    static_cast<long long>(k), bound,
                    feat_achieved[static_cast<size_t>(k)] / denom,
                    feat_achieved[static_cast<size_t>(k)] / denom <= bound
                        ? "ok"
                        : "VIOLATED");
      }
    }
  }
  std::printf(
      "\npaper shape check: bounds dominate every achieved error; the gap\n"
      "stays within ~one order of magnitude; PSN bounds are the tightest,\n"
      "baseline the loosest (Figs. 3/4).\n");
}

void RunQuantErrorFigure(Norm norm) {
  PrintHeader(std::string("Fig. ") + (norm == Norm::kLinf ? "5" : "6") +
              " - quantization error: bound vs achieved relative QoI (" +
              NormLabel(norm) + ")");
  for (TrainedTask& task : LoadAllTasks()) {
    ErrorFlowAnalysis analysis(
        ProfileModel(task.model, task.single_input_shape));
    const Tensor& inputs = task.test.inputs;
    const Tensor reference = task.model.Predict(inputs);
    const double out_norm = MaxSampleNorm(reference, norm);

    std::printf("\n[%s]\n", tasks::TaskKindToString(task.kind));
    std::printf("%-6s %14s %14s   %s\n", "format", "bound(rel)",
                "achieved(rel)", "status");
    for (NumericFormat fmt : quant::ReducedFormats()) {
      const double bound = analysis.QuantTerm(fmt) / out_norm;
      quant::MaterializedModel qm = quant::Materialize(task.model, {fmt});
      const Tensor out = qm.model.Predict(inputs);
      const double achieved =
          MaxSampleError(reference, out, norm) / out_norm;
      std::printf("%-6s %14.3e %14.3e   %s\n", quant::FormatToString(fmt),
                  bound, achieved, achieved <= bound ? "ok" : "VIOLATED");
    }
  }
  std::printf(
      "\npaper shape check: error grows tf32 ~ fp16 << bf16 << int8; all\n"
      "achieved errors sit below their bounds (Figs. 5/6).\n");
}

void RunIoThroughputFigure(Norm norm) {
  PrintHeader(std::string("Fig. ") + (norm == Norm::kLinf ? "7" : "8") +
              " - I/O throughput vs QoI tolerance (" + NormLabel(norm) +
              ")" + (norm == Norm::kL2 ? "  [ZFP: no L2 mode]" : ""));
  io::SimulatedStorage storage;
  const double baseline =
      storage.config().read_bandwidth_bytes_per_sec / 1e9;

  for (TrainedTask& task : LoadAllTasks()) {
    ErrorFlowAnalysis analysis(
        ProfileModel(task.model, task.single_input_shape));
    const Tensor batch = LargeInputBatch(task);
    const Tensor ref = task.model.Predict(task.test.inputs);
    const double out_norm = MaxSampleNorm(ref, norm);

    std::printf("\n[%s]  baseline (uncompressed): %.2f GB/s\n",
                tasks::TaskKindToString(task.kind), baseline);
    std::printf("%-10s", "qoi_tol");
    for (compress::Backend b : compress::AllBackends()) {
      std::printf(" %10s", compress::BackendToString(b));
    }
    std::printf("   (GB/s; '-' = unsupported norm)\n");

    for (double tol_rel : LogSweep(-5, -1, 5)) {
      const double tol_abs = tol_rel * out_norm;
      // Entire tolerance to compression (Fig. 7/8 isolates I/O).
      const double input_tol =
          analysis.MaxInputError(tol_abs, norm, NumericFormat::kFP32);
      std::printf("%-10.0e", tol_rel);
      for (compress::Backend backend : compress::AllBackends()) {
        auto compressor = compress::MakeCompressor(backend);
        if (!compressor->SupportsNorm(norm)) {
          std::printf(" %10s", "-");
          continue;
        }
        compress::ErrorBound eb;
        eb.norm = norm;
        eb.relative = false;
        eb.tolerance = input_tol;
        auto comp = compressor->Compress(batch, eb);
        if (!comp.ok()) {
          std::printf(" %10s", "err");
          continue;
        }
        // Median-of-3 decompression timing, scaled by the node-level
        // decompression parallelism of the storage model.
        double dec_s = 1e300;
        for (int rep = 0; rep < 3; ++rep) {
          auto dec = compressor->Decompress(comp->blob);
          if (dec.ok()) dec_s = std::min(dec_s, dec->seconds);
        }
        dec_s /= storage.config().decompress_parallelism;
        const double read_s = storage.ModelReadSeconds(
            static_cast<int64_t>(comp->blob.size()));
        const double throughput =
            static_cast<double>(comp->original_bytes) / (read_s + dec_s);
        std::printf(" %10.2f", throughput / 1e9);
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\npaper shape check: compression lifts throughput above the 2.8\n"
      "GB/s baseline at loose tolerances; SZ/MGARD fall below it at tight\n"
      "tolerances (decompression cost); ZFP stays flat (Figs. 7/8).\n");
}

void RunPipelineFigure(compress::Backend backend, Norm norm) {
  std::string fig;
  if (backend == compress::Backend::kMgard) {
    fig = norm == Norm::kLinf ? "11" : "12";
  } else if (backend == compress::Backend::kSz) {
    fig = norm == Norm::kLinf ? "13" : "14";
  } else {
    fig = "15";
  }
  PrintHeader("Fig. " + fig + " - bound + throughput vs tolerance (" +
              compress::BackendToString(backend) + ", " + NormLabel(norm) +
              ")");

  for (TrainedTask& task : LoadAllTasks()) {
    const Tensor batch = LargeInputBatch(task);
    const Tensor ref = task.model.Predict(task.test.inputs);
    const double out_norm = MaxSampleNorm(ref, norm);
    std::printf("\n[%s]\n", tasks::TaskKindToString(task.kind));
    std::printf("%-10s %-6s | %-6s %11s %11s %9s %9s %9s\n", "qoi_tol",
                "q_frac", "fmt", "bound(rel)", "achvd(rel)", "io GB/s",
                "ex GB/s", "tot GB/s");
    for (double frac : {0.1, 0.5, 0.9}) {
      core::PipelineConfig cfg;
      cfg.backend = backend;
      cfg.norm = norm;
      cfg.quant_fraction = frac;
      core::InferencePipeline pipeline(task.model.Clone(),
                                       task.single_input_shape, cfg);
      for (double tol_rel : LogSweep(-5, -1, 5)) {
        const double tol_abs = tol_rel * out_norm;
        auto report = pipeline.Run(batch, tol_abs);
        if (!report.ok()) {
          std::printf("%-10.0e %-6.1f | run failed: %s\n", tol_rel, frac,
                      report.status().ToString().c_str());
          continue;
        }
        std::printf(
            "%-10.0e %-6.1f | %-6s %11.3e %11.3e %9.2f %9.2f %9.2f\n",
            tol_rel, frac, quant::FormatToString(report->format),
            report->predicted_qoi_bound / report->reference_qoi_norm,
            report->RelativeQoIError(),
            report->io_throughput / 1e9, report->exec_throughput / 1e9,
            report->total_throughput / 1e9);
      }
    }
  }
  std::printf(
      "\npaper shape check: throughput accelerates once FP16 becomes\n"
      "admissible (the ~1e-3 knee); lower quantization fractions shift\n"
      "that knee to looser tolerances (Figs. 11-15).\n");
  PrintObservabilitySummary();
}

}  // namespace bench
}  // namespace errorflow
