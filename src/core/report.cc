#include "core/report.h"

#include "quant/step_size.h"
#include "util/string_util.h"

namespace errorflow {
namespace core {

std::string ProfileReport(const ErrorFlowAnalysis& analysis) {
  const ModelProfile& profile = analysis.profile();
  std::string out = util::StrFormat(
      "ErrorFlow profile of '%s'\n"
      "  input dim n0 = %lld, output dim = %lld, blocks = %zu\n"
      "  compression gain (sigma_s + prod sigma): %.4f\n\n",
      profile.model_name.c_str(), static_cast<long long>(profile.n0),
      static_cast<long long>(profile.n_out), profile.blocks.size(),
      analysis.Gain());

  out += util::StrFormat("  %-30s %8s %8s %8s %12s\n", "layer", "sigma",
                         "n_in", "n_out", "q(fp16)");
  int block_index = 0;
  for (const BlockProfile& block : profile.blocks) {
    out += util::StrFormat("  block %d%s:\n", block_index++,
                           block.is_residual
                               ? (block.has_projection
                                      ? " (residual, projection)"
                                      : " (residual, identity)")
                               : "");
    for (const LayerProfile& layer : block.body) {
      out += util::StrFormat(
          "    %-28s %8.3f %8lld %8lld %12.3e\n",
          layer.name.substr(0, 28).c_str(), layer.sigma,
          static_cast<long long>(layer.n_in),
          static_cast<long long>(layer.n_out),
          quant::AverageStepSize(layer.weight, NumericFormat::kFP16));
    }
    if (block.is_residual && block.has_projection) {
      out += util::StrFormat("    %-28s %8.3f  (shortcut)\n",
                             block.shortcut.name.substr(0, 28).c_str(),
                             block.shortcut.sigma);
    }
  }

  out += "\n  quantization-only QoI bounds:\n";
  for (NumericFormat fmt : quant::ReducedFormats()) {
    out += util::StrFormat("    %-5s : %.4e\n", quant::FormatToString(fmt),
                           analysis.QuantTerm(fmt));
  }
  return out;
}

}  // namespace core
}  // namespace errorflow
