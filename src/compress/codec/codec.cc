#include "compress/codec/codec.h"

#include <mutex>
#include <string>

#include "compress/codec/huffman.h"
#include "compress/codec/lz77.h"
#include "obs/metrics.h"

namespace errorflow {
namespace compress {

namespace {

/// Adapts the static HuffmanCodec decoder to the EntropyCodec interface,
/// adding the DecodeLimits part of the contract (the static stage
/// predates it).
class HuffmanEntropyCodec final : public EntropyCodec {
 public:
  CodecId id() const override { return CodecId::kHuffman; }
  const char* name() const override { return "huffman"; }

  Result<std::vector<uint32_t>> Decode(
      util::BitReader* reader, uint64_t count,
      const util::DecodeLimits& limits) const override {
    EF_RETURN_IF_ERROR(limits.CheckElements(count, "Huffman"));
    uint64_t bytes = 0;
    if (!util::CheckedMul(count, sizeof(uint32_t), &bytes)) {
      return Status::Corruption("Huffman: symbol count overflows");
    }
    EF_RETURN_IF_ERROR(limits.CheckAlloc(bytes, "Huffman"));
    return HuffmanCodec::Decode(reader, count);
  }
};

}  // namespace

const EntropyCodec* GetCodec(CodecId id) {
  static const HuffmanEntropyCodec kHuffmanInstance;
  static const Lz77HuffmanCodec kLz77Instance;
  switch (id) {
    case CodecId::kHuffman:
      return &kHuffmanInstance;
    case CodecId::kLz77Huffman:
      return &kLz77Instance;
  }
  return &kHuffmanInstance;  // Unreachable for valid CodecId values.
}

Result<const EntropyCodec*> CodecFromByte(uint8_t byte) {
  switch (byte) {
    case static_cast<uint8_t>(CodecId::kHuffman):
      return GetCodec(CodecId::kHuffman);
    case static_cast<uint8_t>(CodecId::kLz77Huffman):
      return GetCodec(CodecId::kLz77Huffman);
    default:
      return Status::Corruption("unknown codec byte");
  }
}

namespace {

// A codec's `errorflow.compress.codec.<name>.*` counters, resolved once
// per group rather than looked up by name on every call. Each group is
// registered on its first use, as the per-call lookups registered it, so
// the exported names do not change.
struct CodecCounters {
  std::once_flag encode_once;
  obs::Counter* encode_calls = nullptr;
  obs::Counter* encode_symbols = nullptr;
  obs::Counter* encode_overhead_bits = nullptr;
  obs::Counter* encode_payload_bits = nullptr;

  std::once_flag decode_once;
  obs::Counter* decode_calls = nullptr;
  obs::Counter* decode_symbols = nullptr;
};

CodecCounters& CountersOf(const EntropyCodec& codec) {
  // Indexed by wire byte.
  static CodecCounters counters[static_cast<size_t>(CodecId::kLz77Huffman) +
                                1];
  return counters[static_cast<size_t>(codec.id())];
}

obs::Counter* CodecCounter(const EntropyCodec& codec, const char* metric) {
  return obs::MetricsRegistry::Global().GetCounter(
      std::string("errorflow.compress.codec.") + codec.name() + "." +
      metric);
}

}  // namespace

void RecordCodecEncode(const EntropyCodec& codec, uint64_t symbols,
                       const EncodeStats& stats) {
  CodecCounters& c = CountersOf(codec);
  std::call_once(c.encode_once, [&] {
    c.encode_calls = CodecCounter(codec, "encode_calls");
    c.encode_symbols = CodecCounter(codec, "encode_symbols");
    c.encode_overhead_bits = CodecCounter(codec, "encode_overhead_bits");
    c.encode_payload_bits = CodecCounter(codec, "encode_payload_bits");
  });
  c.encode_calls->Increment();
  c.encode_symbols->Increment(symbols);
  c.encode_overhead_bits->Increment(stats.overhead_bits);
  c.encode_payload_bits->Increment(stats.payload_bits);
}

void RecordCodecDecode(const EntropyCodec& codec, uint64_t symbols) {
  CodecCounters& c = CountersOf(codec);
  std::call_once(c.decode_once, [&] {
    c.decode_calls = CodecCounter(codec, "decode_calls");
    c.decode_symbols = CodecCounter(codec, "decode_symbols");
  });
  c.decode_calls->Increment();
  c.decode_symbols->Increment(symbols);
}

}  // namespace compress
}  // namespace errorflow
