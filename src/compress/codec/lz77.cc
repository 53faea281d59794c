#include "compress/codec/lz77.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "compress/codec/huffman.h"

namespace errorflow {
namespace compress {

namespace {

constexpr int kHashBits = 16;
constexpr size_t kHashSize = size_t{1} << kHashBits;
/// Chain-walk budget per position: bounds worst-case encode time on
/// pathological inputs (every position hashing to one bucket).
constexpr int kMaxChain = 256;
/// Decoders accept distance buckets up to this regardless of the
/// encoder's window, so streams from a wider-window encoder still decode.
constexpr uint32_t kMaxDistanceBucket = 20;
static_assert(Lz77HuffmanCodec::kWindowBits <= kMaxDistanceBucket);
/// Distance-alphabet escape: "same distance as the previous match". Tiled
/// scientific fields repeat the row stride as a match distance over and
/// over; one entropy-coded symbol (no extra bits) instead of a bucket +
/// extras makes short stride-matches profitable.
constexpr uint32_t kRepDistCode = kMaxDistanceBucket + 1;
/// Length buckets: u = length - kMinMatch + 1 <= 4094 needs b <= 11;
/// accept one beyond and range-check the reconstructed length.
constexpr uint32_t kMaxLengthBucket = 12;
/// Literal-run buckets: a run may span the whole 32-bit literal count.
constexpr uint32_t kMaxRunBucket = 32;
/// Literal context classes keyed on the previous output symbol. Order-1
/// conditional entropy of quantization-code streams runs 20-40% below the
/// marginal (smooth spans emit small codes after small codes, edges
/// cluster large ones), and a handful of classes captures most of that
/// gap at the cost of a few small Huffman tables. The frequent small
/// codes (zigzag +-4) each get their own class; rarer large codes share
/// magnitude classes by bit-width.
constexpr uint32_t kNumLitContexts = 13;

/// Context class of a literal given the output symbol preceding it:
/// identity for prev < 8, then 8 + bit_width(prev) - 4, capped.
inline uint32_t ContextOf(uint32_t prev) {
  if (prev < 8) return prev;
  const uint32_t w = 32u - static_cast<uint32_t>(__builtin_clz(prev));
  return std::min(8u + w - 4u, kNumLitContexts - 1);
}

inline uint32_t HashAt(const uint32_t* s) {
  uint64_t h = uint64_t{s[0]} * 0x9E3779B185EBCA87ull;
  h ^= uint64_t{s[1]} * 0xC2B2AE3D27D4EB4Full;
  h ^= uint64_t{s[2]} * 0x165667B19E3779F9ull;
  return static_cast<uint32_t>(h >> (64 - kHashBits));
}

/// Bucket index of u >= 1: b = floor(log2(u)), so bucket b spans
/// [2^b, 2^(b+1)) and takes exactly b extra bits.
inline uint32_t BucketOf(uint32_t u) {
  return 31u - static_cast<uint32_t>(__builtin_clz(u));
}

struct Token {
  uint32_t lit_or_len;  // Literal symbol, or match length.
  uint32_t dist;        // 0 marks a literal.
};

}  // namespace

size_t Lz77HuffmanCodec::CompressBound(size_t n_symbols) const {
  // All-literal parse: context-split Huffman streams cost at most 38 bits
  // of table entry plus 32 bits of flat-code payload per literal (a
  // symbol's table entries across contexts are each backed by at least
  // one occurrence), so 70n + O(1) bits. A match covering L >= kMinMatch
  // symbols emits at most (6 + 32) + (4 + 12) + (5 + 20)
  // run/length/distance code-plus-extra bits (flat-code argument for the
  // bucket alphabets) — under the 70L bits of the literals it replaces.
  // The constant covers the token + per-context counts, per-stream fixed
  // framing, and the three bucket tables (33 + 13 + 22 entries at 38 bits
  // each).
  return 9 * n_symbols + 1024;
}

Status Lz77HuffmanCodec::Encode(const std::vector<uint32_t>& symbols,
                                util::BitWriter* writer,
                                EncodeStats* stats) const {
  const size_t n = symbols.size();
  if (n > UINT32_MAX) {
    return Status::InvalidArgument("LZ77: stream too long");
  }
  writer->Reserve(CompressBound(n));
  if (n == 0) {
    writer->WriteBits(0, 32);
    writer->WriteBits(0, 32);
    if (stats != nullptr) stats->overhead_bits += 64;
    return Status::OK();
  }

  // Literal cost model: -log2(conditional probability given the literal's
  // context class) per symbol — the price the context-split Huffman
  // stage actually charges — as a prefix sum so any span's literal cost
  // is O(1). Matches are only taken when they beat this price; on streams
  // whose literals are already near-free (almost-all-zero quantization
  // codes) short matches would otherwise inflate the output.
  // Counts are flat [context][symbol rank] cells, and each distinct count
  // has its log2 taken once.
  std::vector<uint32_t> alphabet, ranks;
  RankSymbols(symbols, &alphabet, &ranks);
  const size_t k_alphabet = alphabet.size();
  std::vector<uint32_t> freq(kNumLitContexts * k_alphabet, 0);
  uint64_t ctx_total[kNumLitContexts] = {0};
  for (size_t i = 0; i < n; ++i) {
    const uint32_t k = ContextOf(i == 0 ? 0 : symbols[i - 1]);
    ++freq[k * k_alphabet + ranks[i]];
    ++ctx_total[k];
  }
  std::vector<double> log2_of(n + 1, -1.0);  // -1: not yet computed.
  auto log2_count = [&](uint64_t count) {
    double& v = log2_of[count];
    if (v < 0.0) v = std::log2(static_cast<double>(count));
    return v;
  };
  std::vector<double> lit_prefix(n + 1, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t k = ContextOf(i == 0 ? 0 : symbols[i - 1]);
    const double bits = log2_count(ctx_total[k]) -
                        log2_count(freq[k * k_alphabet + ranks[i]]);
    lit_prefix[i + 1] = lit_prefix[i] + bits;
  }
  // Estimated bucket-code price: three small alphabets (literal run,
  // length, distance) entropy-code to a few bits each; the gate only
  // needs to be right about *order*. Every match also splits a literal
  // run, charging one extra run entry — folded into the same constant.
  constexpr double kBucketCodeBits = 4.0;
  auto match_gain = [&](size_t pos, size_t len, size_t dist,
                        size_t last_dist) {
    const double lit_cost = lit_prefix[pos + len] - lit_prefix[pos];
    // Repeating the previous match's distance costs one entropy-coded
    // symbol and no extra bits — far under a fresh bucket + extras.
    const double dist_cost =
        dist == last_dist
            ? 2.0
            : kBucketCodeBits + BucketOf(static_cast<uint32_t>(dist));
    const double match_cost =
        2.0 * kBucketCodeBits +
        BucketOf(static_cast<uint32_t>(len - kMinMatch + 1)) + dist_cost;
    return lit_cost - match_cost;
  };

  const size_t window = size_t{1} << kWindowBits;
  const size_t window_mask = window - 1;
  std::vector<int64_t> head(kHashSize, -1);
  std::vector<int64_t> prev(window, -1);
  const uint32_t* data = symbols.data();

  auto insert = [&](size_t pos) {
    if (pos + kMinMatch > n) return;
    const uint32_t h = HashAt(data + pos);
    prev[pos & window_mask] = head[h];
    head[h] = static_cast<int64_t>(pos);
  };

  // Longest match ending the hash chain walk at the window edge; on equal
  // length the most recent (closest, cheapest-distance) candidate wins
  // because the chain is walked newest-first with a strict improvement
  // test.
  auto find_match = [&](size_t pos, size_t* best_len, size_t* best_dist) {
    *best_len = 0;
    *best_dist = 0;
    if (pos + kMinMatch > n) return;
    const size_t limit = std::min(kMaxMatch, n - pos);
    int64_t cand = head[HashAt(data + pos)];
    int chain = kMaxChain;
    while (cand >= 0 && chain-- > 0) {
      const size_t c = static_cast<size_t>(cand);
      // Strict window edge: ring slots for positions this recent cannot
      // have been overwritten yet, so the chain stays acyclic.
      if (c >= pos || pos - c >= window) break;
      if (*best_len > 0 && (pos + *best_len >= n ||
                            data[c + *best_len] != data[pos + *best_len])) {
        cand = prev[c & window_mask];
        continue;
      }
      size_t len = 0;
      while (len < limit && data[c + len] == data[pos + len]) ++len;
      if (len > *best_len) {
        *best_len = len;
        *best_dist = pos - c;
        if (len >= limit) break;
      }
      cand = prev[c & window_mask];
    }
    if (*best_len < kMinMatch) {
      *best_len = 0;
      *best_dist = 0;
    }
  };

  // Longest match at the previous match's distance (0 if below kMinMatch):
  // a single probe the hash chain may have aged out, and the cheapest
  // distance to code when it hits.
  auto rep_len_at = [&](size_t pos, size_t rep_dist) -> size_t {
    if (rep_dist == 0 || rep_dist > pos || pos + kMinMatch > n) return 0;
    const size_t limit = std::min(kMaxMatch, n - pos);
    const size_t c = pos - rep_dist;
    size_t len = 0;
    while (len < limit && data[c + len] == data[pos + len]) ++len;
    return len >= kMinMatch ? len : 0;
  };

  std::vector<Token> tokens;
  tokens.reserve(n / 4 + 16);
  uint64_t n_match_symbols = 0;
  size_t last_dist = 0;
  size_t i = 0;
  while (i < n) {
    size_t len = 0, dist = 0;
    find_match(i, &len, &dist);
    double gain = len != 0 ? match_gain(i, len, dist, last_dist) : 0.0;
    const size_t rlen = rep_len_at(i, last_dist);
    if (rlen != 0) {
      const double rgain = match_gain(i, rlen, last_dist, last_dist);
      if (len == 0 || rgain > gain) {
        len = rlen;
        dist = last_dist;
        gain = rgain;
      }
    }
    const bool take = len != 0 && gain > 0.0;
    if (!take) {
      tokens.push_back(Token{symbols[i], 0});
      insert(i);
      ++i;
      continue;
    }
    insert(i);
    if (i + 1 < n) {
      // One-step lazy matching: if the next position starts a strictly
      // longer (and still profitable) match, emit a literal and defer.
      size_t len2 = 0, dist2 = 0;
      find_match(i + 1, &len2, &dist2);
      const size_t rlen2 = rep_len_at(i + 1, last_dist);
      if (rlen2 > len2) {
        len2 = rlen2;
        dist2 = last_dist;
      }
      if (len2 > len && match_gain(i + 1, len2, dist2, last_dist) > 0.0) {
        tokens.push_back(Token{symbols[i], 0});
        ++i;
        continue;
      }
    }
    tokens.push_back(
        Token{static_cast<uint32_t>(len), static_cast<uint32_t>(dist)});
    n_match_symbols += len;
    last_dist = dist;
    for (size_t k = i + 1; k < i + len; ++k) insert(k);
    i += len;
  }

  // DEFLATE-style token structure: (literal run, match) pairs plus a
  // trailing run, each run/length/distance bucket-coded. No per-token
  // flag bits — token kinds ride in the entropy-coded run stream.
  // Literals split into per-context streams keyed on the preceding
  // output symbol, which both sides can compute.
  std::vector<std::vector<uint32_t>> ctx_literals(kNumLitContexts);
  std::vector<uint32_t> run_buckets, len_buckets, dist_buckets;
  std::vector<std::pair<uint32_t, uint32_t>> run_extras, len_extras,
      dist_extras;
  auto push_bucketed = [](uint64_t u, std::vector<uint32_t>* buckets,
                          std::vector<std::pair<uint32_t, uint32_t>>*
                              extras) {
    const uint32_t b =
        63u - static_cast<uint32_t>(__builtin_clzll(u));
    buckets->push_back(b);
    extras->emplace_back(
        b, static_cast<uint32_t>(u - (uint64_t{1} << b)));
  };
  uint64_t run = 0;
  uint64_t n_literals = 0;
  uint32_t prev_dist = 0;
  size_t src_pos = 0;  // Output position of the current token.
  for (const Token& t : tokens) {
    if (t.dist == 0) {
      const uint32_t prev = src_pos == 0 ? 0 : symbols[src_pos - 1];
      ctx_literals[ContextOf(prev)].push_back(t.lit_or_len);
      ++n_literals;
      ++src_pos;
      ++run;
      continue;
    }
    push_bucketed(run + 1, &run_buckets, &run_extras);
    run = 0;
    push_bucketed(t.lit_or_len - kMinMatch + 1, &len_buckets, &len_extras);
    if (t.dist == prev_dist) {
      dist_buckets.push_back(kRepDistCode);  // No extra bits.
    } else {
      push_bucketed(t.dist, &dist_buckets, &dist_extras);
    }
    prev_dist = t.dist;
    src_pos += t.lit_or_len;
  }
  push_bucketed(run + 1, &run_buckets, &run_extras);  // Trailing run.

  writer->WriteBits(n_literals, 32);
  writer->WriteBits(len_buckets.size(), 32);
  for (const auto& ctx : ctx_literals) writer->WriteBits(ctx.size(), 32);

  EncodeStats sub;
  const size_t payload_start = writer->bit_count();
  for (const auto& ctx : ctx_literals) {
    EF_RETURN_IF_ERROR(HuffmanCodec::Encode(ctx, writer, &sub));
  }
  EF_RETURN_IF_ERROR(HuffmanCodec::Encode(run_buckets, writer, &sub));
  for (const auto& [b, v] : run_extras) writer->WriteBits(v, b);
  EF_RETURN_IF_ERROR(HuffmanCodec::Encode(len_buckets, writer, &sub));
  for (const auto& [b, v] : len_extras) writer->WriteBits(v, b);
  EF_RETURN_IF_ERROR(HuffmanCodec::Encode(dist_buckets, writer, &sub));
  for (const auto& [b, v] : dist_extras) writer->WriteBits(v, b);

  if (stats != nullptr) {
    // Fixed framing (the token and per-context counts) and the sub-stream
    // tables are the per-stream overhead; bucket codes and extra bits
    // scale with the input and count as payload.
    stats->overhead_bits += 64 + 32 * kNumLitContexts + sub.overhead_bits;
    stats->payload_bits +=
        writer->bit_count() - payload_start - sub.overhead_bits;
    stats->literals += n_literals;
    stats->matches += len_buckets.size();
    stats->match_symbols += n_match_symbols;
  }
  return Status::OK();
}

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
