// Fig. 9: data-ingestion (execution) throughput vs quantization format for
// the ResNet/MLP model zoo, under the calibrated hardware model.
#include <cstdio>

#include "common/bench_common.h"
#include "quant/hardware_model.h"

using namespace errorflow;

int main() {
  bench::PrintHeader(
      "Fig. 9 - execution / data-ingestion throughput vs quant format");
  std::printf("%-10s %12s |", "model", "MFLOPs");
  std::printf(" %9s", "fp32");
  for (quant::NumericFormat f : quant::ReducedFormats()) {
    std::printf(" %9s", quant::FormatToString(f));
  }
  std::printf("   (GB/s ingested)\n");

  for (bench::ZooEntry& entry : bench::BuildModelZoo()) {
    quant::ExecutionModel exec(entry.flops_per_sample,
                               entry.bytes_per_sample);
    std::printf("%-10s %12.1f |", entry.name.c_str(),
                static_cast<double>(entry.flops_per_sample) / 1e6);
    std::printf(" %9.2f",
                exec.IngestBytesPerSecond(quant::NumericFormat::kFP32) /
                    1e9);
    for (quant::NumericFormat f : quant::ReducedFormats()) {
      std::printf(" %9.2f", exec.IngestBytesPerSecond(f) / 1e9);
    }
    std::printf("\n");
  }
  std::printf(
      "\npaper shape check: fp16 delivers ~4.5x fp32 throughput and int8\n"
      "slightly more; tf32/bf16 provide little speedup (Fig. 9 / Sec.\n"
      "IV-C). Throughput falls as model FLOPs grow.\n");
  return 0;
}
