// PTQ comparison: data-driven INT8 weight quantizers (OPTQ greedy
// error-feedback and SPFQ stochastic rounding, calibrated on a small task
// batch) against the paper's Table-I max-affine INT8, on the three paper
// tasks.
//
// Two claims, both written as BENCH records to BENCH_ptq.json (schema in
// docs/PERFORMANCE.md):
//  1. Achieved error — the calibrated quantizers land measurably below
//     max-affine INT8 on held-out task data, and their measured
//     effective-step bound is tighter than the worst-case Table-I bound.
//  2. Admitted traffic — swept over the Fig. 7 relative-tolerance grid,
//     an admission controller holding the data-driven bound serves
//     tolerance bands at INT8 that a max-affine-only controller must
//     route to a slower wide format.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/bench_common.h"
#include "common/record_writer.h"
#include "core/spectral_profile.h"
#include "quant/hardware_model.h"
#include "quant/quantize_model.h"
#include "serve/admission.h"

using namespace errorflow;
using bench::LoadAllTasks;
using bench::LogSweep;
using bench::MaxSampleError;
using bench::MaxSampleNorm;
using bench::Source;
using core::ErrorFlowAnalysis;
using quant::NumericFormat;
using quant::WeightQuantizer;
using tensor::Norm;
using tensor::Tensor;

int main() {
  bench::PrintHeader(
      "PTQ - data-driven INT8 (optq/spfq) vs Table-I max-affine");
  const Norm norm = Norm::kLinf;
  const auto now = serve::Clock::now();
  const auto later = now + std::chrono::seconds(1);

  bench::RecordWriter out("ptq_data_driven_int8", {{"norm", "linf"}});
  for (tasks::TrainedTask& task : LoadAllTasks()) {
    const char* task_name = tasks::TaskKindToString(task.kind);
    ErrorFlowAnalysis analysis(
        core::ProfileModel(task.model, task.single_input_shape));
    const Tensor calibration = tasks::FreshInputBatches(task, 1, 41)[0];
    const Tensor ref = task.model.Predict(task.test.inputs);
    const double out_norm = MaxSampleNorm(ref, norm);

    // --- achieved error, held-out test data, relative Linf ------------
    quant::MaterializedModel affine =
        quant::Materialize(task.model, {NumericFormat::kINT8});
    quant::MaterializedModel optq = quant::Materialize(
        task.model, {NumericFormat::kINT8, WeightQuantizer::kOptq},
        calibration);
    quant::MaterializedModel spfq = quant::Materialize(
        task.model, {NumericFormat::kINT8, WeightQuantizer::kSpfq},
        calibration);
    const double err_affine =
        MaxSampleError(ref, affine.model.Predict(task.test.inputs), norm) /
        out_norm;
    const double err_optq =
        MaxSampleError(ref, optq.model.Predict(task.test.inputs), norm) /
        out_norm;
    const double err_spfq =
        MaxSampleError(ref, spfq.model.Predict(task.test.inputs), norm) /
        out_norm;

    // The data-driven candidate as the serving registry prices it.
    const core::PricedVariant data_driven{
        NumericFormat::kINT8, WeightQuantizer::kOptq,
        analysis.QuantTerm(optq.EffectiveSteps())};
    const double bound_affine =
        analysis.Bound(0.0, norm, NumericFormat::kINT8) / out_norm;
    const double bound_optq = data_driven.quant_term / out_norm;

    std::printf("\n[%s]  (relative Linf, held-out test batch)\n",
                task_name);
    std::printf("%-18s %14s %14s\n", "int8 variant", "achieved", "bound");
    std::printf("%-18s %14.3e %14.3e\n", "max-affine", err_affine,
                bound_affine);
    std::printf("%-18s %14.3e %14.3e\n", "optq", err_optq, bound_optq);
    std::printf("%-18s %14.3e %14s\n", "spfq", err_spfq, "-");
    for (const auto& [variant, err] :
         {std::pair{"max_affine", err_affine}, {"optq", err_optq},
          {"spfq", err_spfq}}) {
      out.Add({{"task", task_name}, {"variant", variant}},
              "achieved_rel_error", err, "ratio", Source::kMeasured);
    }
    for (const auto& [variant, bound] :
         {std::pair{"max_affine", bound_affine}, {"optq", bound_optq}}) {
      out.Add({{"task", task_name}, {"variant", variant}}, "bound_rel",
              bound, "ratio", Source::kModeled);
    }

    // --- admitted traffic over the Fig. 7 relative-tolerance grid -----
    serve::AdmissionConfig base_cfg;
    base_cfg.norm = norm;
    base_cfg.allowed_formats = quant::ReducedFormats();
    serve::AdmissionController controller(base_cfg);

    const int64_t flops =
        task.model.FlopsPerSample(task.single_input_shape);
    int64_t bytes = sizeof(float);
    for (size_t d = 1; d < task.single_input_shape.size(); ++d) {
      bytes *= task.single_input_shape[d];
    }
    quant::ExecutionModel exec(flops, bytes);

    std::printf("\n%-12s %12s %14s %10s\n", "qoi_tol_rel", "max-affine",
                "data-driven", "speedup");
    int int8_affine = 0, int8_data = 0;
    for (double tol_rel : LogSweep(-5, -1, 9)) {
      const double tol_abs = tol_rel * out_norm;
      auto a = controller.Admit(analysis, tol_abs, later, now, 0);
      auto d = controller.Admit(analysis, tol_abs, later, now, 0, false,
                                &data_driven);
      const std::string a_fmt =
          a.ok() ? quant::FormatToString(a->format) : "rejected";
      std::string d_fmt =
          d.ok() ? quant::FormatToString(d->format) : "rejected";
      if (d.ok() && d->quantizer != WeightQuantizer::kMaxAffine) {
        d_fmt += std::string("+") + quant::QuantizerToString(d->quantizer);
      }
      if (a.ok() && a->format == NumericFormat::kINT8) ++int8_affine;
      if (d.ok() && d->format == NumericFormat::kINT8) ++int8_data;
      // GPU-time ratio of the two routings under quant::ExecutionModel,
      // not a measurement (>1 = data-driven faster).
      double speedup = 1.0;
      if (a.ok() && d.ok()) {
        speedup = exec.SecondsPerSample(a->format) /
                  exec.SecondsPerSample(d->format);
      }
      std::printf("%-12.0e %12s %14s %9.2fx\n", tol_rel, a_fmt.c_str(),
                  d_fmt.c_str(), speedup);
      out.Add({{"task", task_name}, {"qoi_tol_rel", tol_rel},
               {"max_affine", a_fmt}, {"data_driven", d_fmt}},
              "speedup", speedup, "x", Source::kModeled);
    }
    std::printf(
        "grid points served at int8: max-affine %d, data-driven %d\n",
        int8_affine, int8_data);
  }

  std::printf(
      "\npaper shape check: calibrated int8 error sits below max-affine "
      "int8,\nand the tighter measured bound moves tolerance bands from "
      "wide formats\nonto int8 (Fig. 7 grid).\n");
  return out.Write("BENCH_ptq.json").ok() ? 0 : 2;
}
