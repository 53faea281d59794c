// SZ codec sweep: ratio and speed of the SZ-like backend and of its
// canonical Huffman entropy stage (which writes every new stream),
// single-threaded, in three parts:
//  - whole fields: the three scientific datasets (H2 combustion, Borghesi
//    HPC telemetry, EuroSAT imagery) at 256x256 / 64 images, at the
//    Fig. 3/4 relative tolerances;
//  - pipeline batches: one batch of what InferencePipeline::Run encodes
//    (h2: 1024 samples, 36 KB; eurosat: 32 images, 416 KB) at the input
//    tolerance the pipeline plans for each QoI tolerance the perfbench
//    workloads run, whole and split
//    into the four stages of SZ: predict+quantize, entropy encode,
//    entropy decode and reconstruct (each timed alone here, so the hot
//    path carries no stage timer), with the decode's table build (a
//    zero-symbol decode) and the reconstruct's unpack and prediction
//    chains also timed apart;
//  - decode speed by backend: zfp, sz and mgard decoding one 512x512
//    smooth field at the same absolute L-inf bound, the ordering the
//    paper's Fig. 7 relies on ("zfp decodes fastest"). It is a wall-clock
//    property of the host, so it is reported here rather than asserted by
//    a test.
// Before timing anything, every SZ stream of the first two parts must
// decode bit-identically to the retained element-by-element references
// (tests/testing/codec_reference.h): the same codes from predict+quantize,
// the same symbols from the reference Huffman decoder, the same floats
// from the reference reconstruct loop and from the whole blob. Otherwise
// it exits 1 naming the stream and the stage.
// Writes the parts as BENCH records (BENCH_codec.json; schema in
// docs/PERFORMANCE.md), so the ratio trajectory is diffable across
// changes. Run from the repository root: the batch part loads (or trains
// once) the h2 and eurosat models from the model cache.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/record_writer.h"
#include "compress/bound_util.h"
#include "compress/codec/codec.h"
#include "compress/codec/huffman.h"
#include "compress/compressor.h"
#include "compress/sz.h"
#include "core/pipeline.h"
#include "data/borghesi.h"
#include "data/combustion.h"
#include "data/eurosat.h"
#include "tasks/tasks.h"
#include "tensor/norms.h"
#include "tensor/tensor.h"
#include "testing/codec_reference.h"
#include "util/random.h"

namespace {

using errorflow::tensor::Tensor;
namespace compress = errorflow::compress;

double BestOf(int reps, const std::function<void()>& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

namespace bench = errorflow::bench;
constexpr bench::Source kMeasured = bench::Source::kMeasured;

// Quantization-code-shaped symbol stream for codec-level throughput: the
// field's first differences quantized at the tolerance and zigzag-folded,
// mirroring what the predictors hand the entropy stage (the full
// Compress/Decompress numbers are Lorenzo-dominated).
std::vector<uint32_t> QuantStream(const Tensor& field, double eb) {
  std::vector<uint32_t> codes;
  codes.reserve(static_cast<size_t>(field.size()));
  double prev = 0.0;
  for (int64_t i = 0; i < field.size(); ++i) {
    const double q = std::nearbyint((field[i] - prev) / (2.0 * eb));
    const int32_t qi =
        static_cast<int32_t>(std::max(-1048576.0, std::min(1048576.0, q)));
    codes.push_back((static_cast<uint32_t>(qi) << 1) ^
                    static_cast<uint32_t>(qi >> 31));
    prev = field[i];
  }
  return codes;
}

struct DatasetCase {
  std::string name;
  Tensor field;
};

// A pipeline workload's batches and the QoI tolerances it plans for.
struct BatchCase {
  std::string name;
  errorflow::tasks::TaskKind kind;
  std::vector<double> qoi_tolerances;
};

// Batches per case; the times are means over them of the best of 5.
constexpr int kBatches = 3;

// A BatchCase's batches and the input tolerance planned for each QoI
// tolerance.
struct LoadedBatches {
  std::string name;
  std::vector<Tensor> batches;
  std::vector<std::pair<double, double>> qoi_and_input_tol;
};

LoadedBatches LoadBatches(const BatchCase& bc) {
  namespace tasks = errorflow::tasks;
  tasks::TrainedTask task =
      tasks::GetTask(bc.kind, tasks::Regularization::kPsn, /*seed=*/1);
  LoadedBatches loaded;
  loaded.name = bc.name;
  loaded.batches = tasks::FreshInputBatches(task, kBatches,
                                            /*base_seed=*/5001);
  const errorflow::core::InferencePipeline pipeline(
      std::move(task.model), task.single_input_shape,
      errorflow::core::PipelineConfig{});
  for (double qoi_tol : bc.qoi_tolerances) {
    loaded.qoi_and_input_tol.emplace_back(
        qoi_tol, pipeline.Plan(qoi_tol).input_tolerance);
  }
  return loaded;
}

bool SameBits(const float* a, const float* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

// Escape flags for the elements `q` stored raw.
std::vector<uint8_t> EscapeFlags(const compress::LorenzoCodes& q,
                                 int64_t n) {
  std::vector<uint8_t> unpred(static_cast<size_t>(n), 0);
  for (const int64_t idx : q.escape_indices) {
    unpred[static_cast<size_t>(idx)] = 1;
  }
  return unpred;
}

// Whether `codes` round-trip through Huffman and decode to the same
// symbols and position as the reference decoder.
bool StreamMatchesReference(const std::vector<uint32_t>& codes) {
  errorflow::util::BitWriter bits;
  if (!compress::HuffmanCodec::Encode(codes, &bits).ok()) return false;
  const std::string stream = bits.Finish();
  errorflow::util::BitReader fast(stream.data(), stream.size());
  auto got = compress::HuffmanCodec::Decode(&fast, codes.size());
  if (!got.ok() || *got != codes) return false;
  errorflow::util::BitReader slow(stream.data(), stream.size());
  auto want = errorflow::testing::ReferenceHuffmanDecode(&slow, codes.size());
  return want.ok() && *want == codes &&
         fast.BitsRemaining() == slow.BitsRemaining();
}

// Checks `field`'s SZ stream at absolute L-inf bound `eb` against the
// retained references, stage by stage and as a whole blob. Returns the
// first stage that differs, or an empty string.
std::string ReferenceMismatch(const Tensor& field, double eb) {
  namespace testing = errorflow::testing;
  int64_t slices, rows, cols;
  compress::CollapseTo3d(field.shape(), &slices, &rows, &cols);
  const int64_t n = field.size();
  const compress::LorenzoCodes q =
      compress::LorenzoQuantize(field.data(), slices, rows, cols, eb);
  const compress::LorenzoCodes ref = testing::ReferenceLorenzoQuantize(
      field.data(), slices, rows, cols, eb);
  if (q.codes != ref.codes || q.escape_indices != ref.escape_indices ||
      q.raw_values.size() != ref.raw_values.size() ||
      !SameBits(q.raw_values.data(), ref.raw_values.data(),
                q.raw_values.size())) {
    return "predict+quantize";
  }
  if (!StreamMatchesReference(q.codes)) return "entropy decode";
  const std::vector<uint8_t> unpred = EscapeFlags(ref, n);
  const char* raw = reinterpret_cast<const char*>(ref.raw_values.data());
  std::vector<float> rec(static_cast<size_t>(n)), want(rec.size());
  if (!compress::LorenzoReconstruct(q.codes, unpred.data(), raw,
                                    ref.raw_values.size(), slices, rows, cols,
                                    eb, rec.data())
           .ok() ||
      !testing::ReferenceLorenzoReconstruct(
           ref.codes, unpred.data(), raw, ref.raw_values.size(), slices,
           rows, cols, eb, want.data())
           .ok() ||
      !SameBits(rec.data(), want.data(), rec.size())) {
    return "reconstruct";
  }
  auto compressor = compress::MakeCompressor(compress::Backend::kSz);
  auto comp = compressor->Compress(field, compress::ErrorBound::AbsLinf(eb));
  if (!comp.ok()) return "compress";
  auto dec = compressor->Decompress(comp->blob);
  if (!dec.ok() || dec->data.size() != n ||
      !SameBits(dec->data.data(), want.data(), want.size())) {
    return "whole blob";
  }
  return "";
}

// Per-stage time of one SZ batch, in seconds (best of 5 each).
struct StageSeconds {
  double quantize = 0.0;
  double encode = 0.0;
  double decode = 0.0;
  // The code table read and the decode tables built, which a decode of
  // zero symbols does and nothing else.
  double decode_table = 0.0;
  double reconstruct = 0.0;
  // The reconstruct stage's two passes: codes and escapes unpacked in
  // element order, then the prediction chains.
  double unpack = 0.0;
  double chains = 0.0;
};

StageSeconds TimeStages(const Tensor& batch, double eb) {
  const compress::EntropyCodec& entropy =
      *compress::GetCodec(compress::CodecId::kHuffman);
  int64_t slices, rows, cols;
  compress::CollapseTo3d(batch.shape(), &slices, &rows, &cols);
  const int64_t n = batch.size();
  StageSeconds t;
  compress::LorenzoCodes q;
  t.quantize = BestOf(5, [&] {
    q = compress::LorenzoQuantize(batch.data(), slices, rows, cols, eb);
  });
  std::string stream;
  t.encode = BestOf(5, [&] {
    errorflow::util::BitWriter bits;
    if (!compress::HuffmanCodec::Encode(q.codes, &bits).ok()) std::abort();
    stream = bits.Finish();
  });
  t.decode = BestOf(5, [&] {
    errorflow::util::BitReader reader(stream.data(), stream.size());
    if (!entropy.Decode(&reader, q.codes.size()).ok()) std::abort();
  });
  t.decode_table = BestOf(5, [&] {
    errorflow::util::BitReader reader(stream.data(), stream.size());
    if (!entropy.Decode(&reader, 0).ok()) std::abort();
  });
  const std::vector<uint8_t> unpred = EscapeFlags(q, n);
  std::vector<float> out(static_cast<size_t>(n));
  t.reconstruct = BestOf(5, [&] {
    if (!compress::LorenzoReconstruct(
             q.codes, unpred.data(),
             reinterpret_cast<const char*>(q.raw_values.data()),
             q.raw_values.size(), slices, rows, cols, eb, out.data())
             .ok()) {
      std::abort();
    }
  });
  t.unpack = BestOf(5, [&] {
    if (!compress::UnpackLorenzoCodes(
             q.codes, unpred.data(),
             reinterpret_cast<const char*>(q.raw_values.data()),
             q.raw_values.size(), n, out.data())
             .ok()) {
      std::abort();
    }
  });
  // The chains overwrite the unpacked bits, so each round starts from a
  // copy of them.
  const std::vector<float> unpacked = out;
  t.chains = BestOf(5, [&] {
    std::memcpy(out.data(), unpacked.data(), unpacked.size() * sizeof(float));
    compress::LorenzoChains(unpred.data(), slices, rows, cols, eb, out.data());
  });
  const double copy = BestOf(5, [&] {
    std::memcpy(out.data(), unpacked.data(), unpacked.size() * sizeof(float));
  });
  t.chains = std::max(0.0, t.chains - copy);
  return t;
}

// Encodes and decodes each batch of `lb` at every planned tolerance,
// checking the bound, then times the four stages. Returns false on any
// failure.
bool RunBatchCase(const LoadedBatches& lb, bench::RecordWriter* out,
                  std::vector<std::string>* stage_lines) {
  auto compressor = compress::MakeCompressor(compress::Backend::kSz);
  for (const auto& [qoi_tol, eb] : lb.qoi_and_input_tol) {
    const compress::ErrorBound bound = compress::ErrorBound::AbsLinf(eb);
    double raw = 0.0, stored = 0.0, encode_s = 0.0, decode_s = 0.0;
    StageSeconds stages;
    for (const Tensor& batch : lb.batches) {
      auto comp = compressor->Compress(batch, bound);
      if (!comp.ok()) return false;
      auto dec = compressor->Decompress(comp->blob);
      if (!dec.ok() || dec->data.size() != batch.size()) return false;
      for (int64_t i = 0; i < batch.size(); ++i) {
        if (std::fabs(static_cast<double>(dec->data[i]) - batch[i]) >
            eb * (1.0 + 1e-12)) {
          return false;
        }
      }
      raw += static_cast<double>(batch.size()) * sizeof(float);
      stored += static_cast<double>(comp->blob.size());
      encode_s += BestOf(5, [&] {
        if (!compressor->Compress(batch, bound).ok()) std::abort();
      });
      decode_s += BestOf(5, [&] {
        if (!compressor->Decompress(comp->blob).ok()) std::abort();
      });
      const StageSeconds t = TimeStages(batch, eb);
      stages.quantize += t.quantize;
      stages.encode += t.encode;
      stages.decode += t.decode;
      stages.decode_table += t.decode_table;
      stages.reconstruct += t.reconstruct;
      stages.unpack += t.unpack;
      stages.chains += t.chains;
    }
    const double ratio = raw / stored;
    const double ms = 1e3 / kBatches;
    std::printf("%-14s %-6g %-10.3g %8.2f %10.2f %10.2f\n", lb.name.c_str(),
                qoi_tol, eb, ratio, encode_s * ms, decode_s * ms);
    char line[200];
    std::snprintf(line, sizeof(line),
                  "%-14s %-6g %10.3f %10.3f %10.3f %8.3f %12.3f %8.3f %8.3f",
                  lb.name.c_str(), qoi_tol, stages.quantize * ms,
                  stages.encode * ms, stages.decode * ms,
                  stages.decode_table * ms, stages.reconstruct * ms,
                  stages.unpack * ms, stages.chains * ms);
    stage_lines->push_back(line);
    const bench::Fields key = {{"part", "batch"},
                               {"dataset", lb.name},
                               {"qoi_tol", qoi_tol},
                               {"input_tol", eb}};
    out->Add(key, "ratio", ratio, "x", kMeasured);
    out->Add(key, "encode_ms", encode_s * ms, "ms", kMeasured);
    out->Add(key, "decode_ms", decode_s * ms, "ms", kMeasured);
    out->Add(key, "quantize_ms", stages.quantize * ms, "ms", kMeasured);
    out->Add(key, "entropy_encode_ms", stages.encode * ms, "ms", kMeasured);
    out->Add(key, "entropy_decode_ms", stages.decode * ms, "ms", kMeasured);
    out->Add(key, "entropy_decode_table_ms", stages.decode_table * ms, "ms",
             kMeasured);
    out->Add(key, "reconstruct_ms", stages.reconstruct * ms, "ms",
             kMeasured);
    out->Add(key, "unpack_ms", stages.unpack * ms, "ms", kMeasured);
    out->Add(key, "chains_ms", stages.chains * ms, "ms", kMeasured);
  }
  return true;
}

struct BackendRecord {
  compress::Backend backend = compress::Backend::kSz;
  double ratio = 0.0;
  double decode_ms = 0.0;
};

// 512x512 sum of low-frequency sinusoids: the smooth field of the zfp
// decode-speed comparison.
Tensor SmoothField(int64_t rows, int64_t cols, uint64_t seed) {
  errorflow::util::Rng rng(seed);
  const double a1 = rng.Uniform(0.5, 1.5), a2 = rng.Uniform(0.2, 0.8);
  const double p1 = rng.Uniform(0, 6.28), p2 = rng.Uniform(0, 6.28);
  Tensor t({rows, cols});
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      const double x = static_cast<double>(j) / cols;
      const double y = static_cast<double>(i) / rows;
      t.at(i, j) = static_cast<float>(
          a1 * std::sin(2 * M_PI * x + p1) * std::cos(2 * M_PI * y) +
          a2 * std::sin(6 * M_PI * (x + y) + p2));
    }
  }
  return t;
}

// Decodes the smooth field with every backend, taking each backend's
// minimum decode time over 10 interleaved rounds: a burst of load from
// other processes slows each backend in turn rather than whichever one it
// happened to overlap. Returns false on any failure or bound violation.
bool RunBackendDecode(std::vector<BackendRecord>* records) {
  const Tensor field = SmoothField(512, 512, 3);
  const double eb = 1e-4;
  const compress::ErrorBound bound = compress::ErrorBound::AbsLinf(eb);
  std::vector<std::unique_ptr<compress::Compressor>> comps;
  std::vector<std::string> blobs;
  for (compress::Backend backend : compress::AllBackends()) {
    comps.push_back(compress::MakeCompressor(backend));
    auto comp = comps.back()->Compress(field, bound);
    if (!comp.ok()) return false;
    blobs.push_back(std::move(comp->blob));
    BackendRecord rec;
    rec.backend = backend;
    rec.ratio = static_cast<double>(field.size()) * sizeof(float) /
                static_cast<double>(blobs.back().size());
    rec.decode_ms = 1e30;
    records->push_back(rec);
  }
  for (int round = 0; round < 10; ++round) {
    for (size_t b = 0; b < comps.size(); ++b) {
      auto dec = comps[b]->Decompress(blobs[b]);
      if (!dec.ok() || dec->data.size() != field.size()) return false;
      for (int64_t i = 0; i < field.size(); ++i) {
        if (std::fabs(static_cast<double>(dec->data[i]) - field[i]) >
            eb * (1.0 + 1e-9)) {
          return false;
        }
      }
      (*records)[b].decode_ms =
          std::min((*records)[b].decode_ms, 1e3 * dec->seconds);
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = argc > 1 ? argv[1] : "BENCH_codec.json";

  std::vector<DatasetCase> datasets;
  datasets.push_back({"h2", errorflow::data::GenerateH2SpeciesField(
                                /*height=*/256, /*width=*/256, /*seed=*/3)});
  datasets.push_back({"borghesi", errorflow::data::GenerateBorghesiField(
                                      256, 256, /*seed=*/3)});
  {
    errorflow::data::EuroSatConfig config;
    config.n_images = 64;
    config.seed = 3;
    datasets.push_back(
        {"eurosat", errorflow::data::GenerateEuroSat(config).inputs});
  }

  // Fig. 3/4 sweep the input tolerance over 1e-7..1e-3 of the input Linf
  // norm; the codec matters most where quantization codes dominate the
  // stream, so bench the upper decades.
  const std::vector<double> tolerances = {1e-6, 1e-5, 1e-4, 1e-3};

  const std::vector<BatchCase> batch_cases = {
      {"h2-batch", errorflow::tasks::TaskKind::kH2Combustion,
       {1e-3, 1e-1, 1.0}},
      {"eurosat-batch", errorflow::tasks::TaskKind::kEuroSat,
       {0.3, 3.0, 30.0}},
  };
  std::vector<LoadedBatches> loaded;
  for (const BatchCase& bc : batch_cases) loaded.push_back(LoadBatches(bc));

  // The gate: nothing is timed unless every stream matches the references.
  auto check = [&](const std::string& what, const Tensor& field, double eb) {
    const std::string stage = ReferenceMismatch(field, eb);
    if (stage.empty()) return true;
    std::printf("FATAL: %s differs from the reference at %s\n", what.c_str(),
                stage.c_str());
    return false;
  };
  for (const DatasetCase& ds : datasets) {
    const double in_norm = errorflow::tensor::LinfNorm(ds.field);
    for (double tol_rel : tolerances) {
      const std::string what = ds.name + " tol_rel " + std::to_string(tol_rel);
      if (!check(what, ds.field, tol_rel * in_norm)) return 1;
      if (!StreamMatchesReference(QuantStream(ds.field, tol_rel * in_norm))) {
        std::printf("FATAL: %s code stream differs from the reference\n",
                    what.c_str());
        return 1;
      }
    }
  }
  for (const LoadedBatches& lb : loaded) {
    for (const auto& [qoi_tol, eb] : lb.qoi_and_input_tol) {
      for (size_t b = 0; b < lb.batches.size(); ++b) {
        if (!check(lb.name + " " + std::to_string(b) + " qoi_tol " +
                       std::to_string(qoi_tol),
                   lb.batches[b], eb)) {
          return 1;
        }
      }
    }
  }
  std::printf("every SZ stream decodes bit-identically to the reference "
              "loops\n\n");

  bench::RecordWriter out(
      "codec_sweep",
      {{"backend", "sz"}, {"codec", "huffman"}, {"threads", 1}});
  std::printf("%-10s %-8s %10s %14s %14s %14s\n", "dataset", "tol_rel",
              "ratio", "compress MB/s", "decomp MB/s", "codec dec MB/s");
  auto compressor = compress::MakeCompressor(compress::Backend::kSz);
  for (const DatasetCase& ds : datasets) {
    const double in_norm = errorflow::tensor::LinfNorm(ds.field);
    const double mb = static_cast<double>(ds.field.size()) * sizeof(float) /
                      (1024.0 * 1024.0);
    for (double tol_rel : tolerances) {
      compress::ErrorBound bound =
          compress::ErrorBound::AbsLinf(tol_rel * in_norm);
      auto comp = compressor->Compress(ds.field, bound);
      if (!comp.ok()) {
        std::printf("FATAL: compress failed: %s\n",
                    comp.status().ToString().c_str());
        return 1;
      }
      auto dec = compressor->Decompress(comp->blob);
      if (!dec.ok()) {
        std::printf("FATAL: decompress failed: %s\n",
                    dec.status().ToString().c_str());
        return 1;
      }
      for (int64_t i = 0; i < ds.field.size(); ++i) {
        if (std::fabs(static_cast<double>(dec->data[i]) - ds.field[i]) >
            tol_rel * in_norm * (1.0 + 1e-12)) {
          std::printf("FATAL: bound violated on %s\n", ds.name.c_str());
          return 1;
        }
      }

      const double ratio = static_cast<double>(ds.field.size()) *
                           sizeof(float) /
                           static_cast<double>(comp->blob.size());
      const double t_comp = BestOf(3, [&] {
        auto c = compressor->Compress(ds.field, bound);
        if (!c.ok()) std::abort();
      });
      const double t_dec = BestOf(3, [&] {
        auto d = compressor->Decompress(comp->blob);
        if (!d.ok()) std::abort();
      });

      // Codec-level decode throughput on the symbol stream itself.
      const auto codes = QuantStream(ds.field, tol_rel * in_norm);
      errorflow::util::BitWriter bits;
      if (!compress::HuffmanCodec::Encode(codes, &bits).ok()) std::abort();
      const std::string stream = bits.Finish();
      const double code_mb = static_cast<double>(codes.size()) *
                             sizeof(uint32_t) / (1024.0 * 1024.0);
      const double t_codec_dec = BestOf(3, [&] {
        errorflow::util::BitReader reader(stream.data(), stream.size());
        auto d = compress::HuffmanCodec::Decode(&reader, codes.size());
        if (!d.ok()) std::abort();
      });

      std::printf("%-10s %-8.0e %10.2f %14.1f %14.1f %14.1f\n",
                  ds.name.c_str(), tol_rel, ratio, mb / t_comp, mb / t_dec,
                  code_mb / t_codec_dec);
      const bench::Fields key = {
          {"part", "field"}, {"dataset", ds.name}, {"tol_rel", tol_rel}};
      out.Add(key, "ratio", ratio, "x", kMeasured);
      out.Add(key, "compress_mb_s", mb / t_comp, "MB/s", kMeasured);
      out.Add(key, "decompress_mb_s", mb / t_dec, "MB/s", kMeasured);
      out.Add(key, "codec_decode_mb_s", code_mb / t_codec_dec, "MB/s",
              kMeasured);
    }
  }

  std::printf("\npipeline batches (SZ, planned input tolerance):\n");
  std::printf("%-14s %-6s %-10s %8s %10s %10s\n", "dataset", "qoi_tol",
              "input_tol", "ratio", "encode ms", "decode ms");
  std::vector<std::string> stage_lines;
  for (const LoadedBatches& lb : loaded) {
    if (!RunBatchCase(lb, &out, &stage_lines)) {
      std::printf("FATAL: batch sweep failed on %s\n", lb.name.c_str());
      return 1;
    }
  }
  std::printf("\npipeline batch stages (SZ, ms per batch):\n");
  std::printf("%-14s %-6s %10s %10s %10s %8s %12s %8s %8s\n", "dataset",
              "qoi_tol", "quantize", "encode", "decode", "table",
              "reconstruct", "unpack", "chains");
  for (const std::string& line : stage_lines) {
    std::printf("%s\n", line.c_str());
  }

  std::printf("\ndecode speed by backend (512x512 smooth field, abs L-inf "
              "1e-4, min of 10 interleaved rounds):\n");
  std::vector<BackendRecord> backend_records;
  if (!RunBackendDecode(&backend_records)) {
    std::printf("FATAL: backend decode sweep failed\n");
    return 1;
  }
  double zfp_ms = 0.0, others_ms = 1e30;
  for (const BackendRecord& r : backend_records) {
    std::printf("  %-6s ratio %7.2f  decode %8.3f ms\n",
                compress::BackendToString(r.backend), r.ratio, r.decode_ms);
    const bench::Fields key = {
        {"part", "backend_decode"}, {"field", "smooth512"}, {"tol_abs", 1e-4},
        {"backend", compress::BackendToString(r.backend)}};
    out.Add(key, "ratio", r.ratio, "x", kMeasured);
    out.Add(key, "decode_ms", r.decode_ms, "ms", kMeasured);
    if (r.backend == compress::Backend::kZfp) {
      zfp_ms = r.decode_ms;
    } else {
      others_ms = std::min(others_ms, r.decode_ms);
    }
  }
  std::printf("  zfp decodes fastest: %s\n",
              zfp_ms < others_ms ? "yes" : "no");

  return out.Write(json_path).ok() ? 0 : 1;
}
