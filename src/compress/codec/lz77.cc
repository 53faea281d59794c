#include "compress/codec/lz77.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace errorflow {
namespace compress {

namespace {

/// Largest distance bucket a stream may use: distances up to 2^21 - 1.
constexpr uint32_t kMaxDistanceBucket = 20;
/// Distance-alphabet escape: "same distance as the previous match", with
/// no extra bits.
constexpr uint32_t kRepDistCode = kMaxDistanceBucket + 1;
/// Length buckets: u = length - kMinMatch + 1 <= 4094 needs b <= 11;
/// accept one beyond and range-check the reconstructed length.
constexpr uint32_t kMaxLengthBucket = 12;
/// Literal-run buckets: a run may span the whole 32-bit literal count.
constexpr uint32_t kMaxRunBucket = 32;
/// Literal context classes keyed on the previous output symbol: the
/// small codes (zigzag +-4) each have their own class; larger codes share
/// magnitude classes by bit-width.
constexpr uint32_t kNumLitContexts = 13;

/// Context class of a literal given the output symbol preceding it:
/// identity for prev < 8, then 8 + bit_width(prev) - 4, capped.
inline uint32_t ContextOf(uint32_t prev) {
  if (prev < 8) return prev;
  const uint32_t w = 32u - static_cast<uint32_t>(__builtin_clz(prev));
  return std::min(8u + w - 4u, kNumLitContexts - 1);
}

}  // namespace

Result<std::vector<uint32_t>> Lz77HuffmanCodec::Decode(
    util::BitReader* reader, uint64_t count,
    const util::DecodeLimits& limits) const {
  EF_RETURN_IF_ERROR(limits.CheckElements(count, "LZ77"));
  uint64_t out_bytes = 0;
  if (!util::CheckedMul(count, sizeof(uint32_t), &out_bytes)) {
    return Status::Corruption("LZ77: output size overflows");
  }
  EF_RETURN_IF_ERROR(limits.CheckAlloc(out_bytes, "LZ77"));

  EF_ASSIGN_OR_RETURN(uint64_t n_lit, reader->ReadBits(32));
  EF_ASSIGN_OR_RETURN(uint64_t n_match, reader->ReadBits(32));
  const uint64_t token_count = n_lit + n_match;  // <= 2^33, cannot overflow.
  if (token_count == 0) {
    if (count != 0) {
      return Status::Corruption("LZ77: empty stream with nonzero count");
    }
    return std::vector<uint32_t>{};
  }
  // The requested output must be reachable from the tokens: each token
  // yields at least one and at most kMaxMatch symbols. Since count already
  // passed DecodeLimits, this also caps both token counts before anything
  // is allocated from them — inflated headers die here, not at a reserve.
  if (count < token_count) {
    return Status::Corruption("LZ77: more tokens than output symbols");
  }
  uint64_t max_out = 0;
  if (!util::CheckedMul(n_match, kMaxMatch, &max_out)) {
    return Status::Corruption("LZ77: match count overflows");
  }
  max_out += n_lit;
  if (count > max_out) {
    return Status::Corruption("LZ77: count not reachable from tokens");
  }

  // Per-context literal counts must partition n_lit before any of the
  // context streams is decoded.
  uint64_t ctx_counts[kNumLitContexts];
  uint64_t ctx_sum = 0;
  for (uint32_t k = 0; k < kNumLitContexts; ++k) {
    EF_ASSIGN_OR_RETURN(ctx_counts[k], reader->ReadBits(32));
    ctx_sum += ctx_counts[k];
  }
  if (ctx_sum != n_lit) {
    return Status::Corruption("LZ77: context counts do not sum to literals");
  }

  const EntropyCodec* huffman = GetCodec(CodecId::kHuffman);
  std::vector<uint32_t> ctx_literals[kNumLitContexts];
  for (uint32_t k = 0; k < kNumLitContexts; ++k) {
    EF_ASSIGN_OR_RETURN(ctx_literals[k],
                        huffman->Decode(reader, ctx_counts[k], limits));
  }

  // Literal runs: n_match + 1 bucket-coded entries (one before each match
  // plus the trailing run) that must partition the literal stream exactly.
  const uint64_t n_runs = n_match + 1;
  EF_ASSIGN_OR_RETURN(std::vector<uint32_t> run_buckets,
                      huffman->Decode(reader, n_runs, limits));
  std::vector<uint64_t> runs(static_cast<size_t>(n_runs));
  uint64_t run_total = 0;
  for (uint64_t m = 0; m < n_runs; ++m) {
    const uint32_t b = run_buckets[static_cast<size_t>(m)];
    if (b > kMaxRunBucket) {
      return Status::Corruption("LZ77: bad run bucket");
    }
    EF_ASSIGN_OR_RETURN(uint64_t extra, reader->ReadBits(static_cast<int>(b)));
    const uint64_t run = (uint64_t{1} << b) + extra - 1;
    run_total += run;
    if (run_total > n_lit) {
      return Status::Corruption("LZ77: literal runs exceed literal count");
    }
    runs[static_cast<size_t>(m)] = run;
  }
  if (run_total != n_lit) {
    return Status::Corruption("LZ77: literal runs do not cover literals");
  }

  EF_ASSIGN_OR_RETURN(std::vector<uint32_t> len_buckets,
                      huffman->Decode(reader, n_match, limits));
  std::vector<uint32_t> lengths(static_cast<size_t>(n_match));
  for (uint64_t m = 0; m < n_match; ++m) {
    const uint32_t b = len_buckets[static_cast<size_t>(m)];
    if (b > kMaxLengthBucket) {
      return Status::Corruption("LZ77: bad length bucket");
    }
    EF_ASSIGN_OR_RETURN(uint64_t extra, reader->ReadBits(static_cast<int>(b)));
    const uint64_t len = (uint64_t{1} << b) + extra - 1 + kMinMatch;
    if (len > kMaxMatch) {
      return Status::Corruption("LZ77: match length out of range");
    }
    lengths[static_cast<size_t>(m)] = static_cast<uint32_t>(len);
  }

  EF_ASSIGN_OR_RETURN(std::vector<uint32_t> dist_buckets,
                      huffman->Decode(reader, n_match, limits));
  std::vector<uint32_t> dists(static_cast<size_t>(n_match));
  uint32_t prev_dist = 0;
  for (uint64_t m = 0; m < n_match; ++m) {
    const uint32_t b = dist_buckets[static_cast<size_t>(m)];
    uint32_t dist = 0;
    if (b == kRepDistCode) {
      if (prev_dist == 0) {
        return Status::Corruption("LZ77: repeat distance with no prior match");
      }
      dist = prev_dist;
    } else {
      if (b > kMaxDistanceBucket) {
        return Status::Corruption("LZ77: bad distance bucket");
      }
      EF_ASSIGN_OR_RETURN(uint64_t extra,
                          reader->ReadBits(static_cast<int>(b)));
      dist = static_cast<uint32_t>((uint64_t{1} << b) + extra);
    }
    dists[static_cast<size_t>(m)] = dist;
    prev_dist = dist;
  }

  std::vector<uint32_t> out;
  out.reserve(static_cast<size_t>(count));
  size_t ctx_pos[kNumLitContexts] = {0};
  for (uint64_t m = 0; m <= n_match; ++m) {
    const uint64_t run = runs[static_cast<size_t>(m)];
    if (run > count - out.size()) {
      return Status::Corruption("LZ77: output overrun");
    }
    for (uint64_t k = 0; k < run; ++k) {
      const uint32_t ctx = ContextOf(out.empty() ? 0 : out.back());
      if (ctx_pos[ctx] >= ctx_literals[ctx].size()) {
        return Status::Corruption("LZ77: literal context stream exhausted");
      }
      out.push_back(ctx_literals[ctx][ctx_pos[ctx]++]);
    }
    if (m == n_match) break;
    const uint32_t len = lengths[static_cast<size_t>(m)];
    const uint32_t dist = dists[static_cast<size_t>(m)];
    if (dist > out.size()) {
      return Status::Corruption("LZ77: distance reaches before stream start");
    }
    if (len > count - out.size()) {
      return Status::Corruption("LZ77: output overrun");
    }
    // Overlapping matches (dist < len) replicate recent output, so the
    // copy must run forward one symbol at a time.
    size_t src = out.size() - dist;
    for (uint32_t k = 0; k < len; ++k) {
      const uint32_t v = out[src + k];
      out.push_back(v);
    }
  }
  if (out.size() != count) {
    return Status::Corruption("LZ77: output underrun");
  }
  return out;
}

}  // namespace compress
}  // namespace errorflow
