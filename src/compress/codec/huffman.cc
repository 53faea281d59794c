#include "compress/codec/huffman.h"

#include <algorithm>
#include <array>
#include <utility>

namespace errorflow {
namespace compress {

namespace {

struct SymbolCode {
  uint32_t symbol;
  int length;
  uint64_t code;  // Canonical code, assigned after lengths are known.
};

// Sorts `keys` by their high 32 bits, keeping the order of equal ones: a
// stable LSD radix sort on those four bytes, with no pass over a byte
// every key shares (so one or two passes for small values).
void StableSortByHigh32(std::vector<uint64_t>* keys) {
  uint32_t any = 0, all = ~uint32_t{0};
  for (const uint64_t key : *keys) {
    any |= static_cast<uint32_t>(key >> 32);
    all &= static_cast<uint32_t>(key >> 32);
  }
  const uint32_t varying = any & ~all;  // Bits on which keys differ.
  std::vector<uint64_t> scratch;
  for (int shift = 32; shift < 64; shift += 8) {
    if (((varying >> (shift - 32)) & 0xFF) == 0) continue;
    uint32_t count[256] = {};
    for (const uint64_t key : *keys) ++count[(key >> shift) & 0xFF];
    uint32_t offset = 0;
    for (uint32_t& c : count) offset += std::exchange(c, offset);
    scratch.resize(keys->size());
    for (const uint64_t key : *keys) {
      scratch[count[(key >> shift) & 0xFF]++] = key;
    }
    keys->swap(scratch);
  }
}

// Huffman code lengths for `freqs`, indexed by symbol rank. Merges the
// two lightest nodes until one remains; among equal weights, leaves go
// before merged nodes, lower ranks first, and older merged nodes first.
// Leaves are taken in (frequency, rank) order and merged nodes come out in
// nondecreasing weight, so two queues do a heap's work.
std::vector<int> ComputeLengths(const std::vector<uint64_t>& freqs) {
  const size_t k = freqs.size();
  if (k == 1) return {1};
  // Frequency above rank; rank order going in, so (frequency, rank)
  // order coming out.
  std::vector<uint64_t> leaves(k);
  for (size_t i = 0; i < k; ++i) leaves[i] = (freqs[i] << 32) | i;
  StableSortByHigh32(&leaves);
  // Node ids: leaf r is r, the m-th merged node is k + m.
  std::vector<uint64_t> merged_weight;
  merged_weight.reserve(k - 1);
  std::vector<uint32_t> parent(2 * k - 2);
  size_t next_leaf = 0, next_merged = 0;
  auto take_lightest = [&](uint64_t* weight) -> size_t {
    if (next_leaf < k && (next_merged == merged_weight.size() ||
                          (leaves[next_leaf] >> 32) <=
                              merged_weight[next_merged])) {
      *weight = leaves[next_leaf] >> 32;
      return static_cast<size_t>(leaves[next_leaf++] & 0xFFFFFFFFu);
    }
    *weight = merged_weight[next_merged];
    return k + next_merged++;
  };
  for (size_t m = 0; m + 1 < k; ++m) {
    uint64_t wa = 0, wb = 0;
    const size_t a = take_lightest(&wa);
    const size_t b = take_lightest(&wb);
    parent[a] = parent[b] = static_cast<uint32_t>(k + m);
    merged_weight.push_back(wa + wb);
  }
  // Parents are made after their children, so one backward sweep from the
  // root (id 2k - 2, depth 0) gives every depth; a leaf's is its length.
  std::vector<int> depth(2 * k - 1, 0);
  for (size_t id = 2 * k - 2; id-- > 0;) depth[id] = depth[parent[id]] + 1;
  depth.resize(k);
  return depth;
}

// The format's code rule (Encode applies it through a counting sort):
// sort by (length, symbol), then count upward, shifting left at each
// longer length.
void AssignCanonical(std::vector<SymbolCode>* codes) {
  const auto canonical_order = [](const SymbolCode& a, const SymbolCode& b) {
    if (a.length != b.length) return a.length < b.length;
    return a.symbol < b.symbol;
  };
  // Encode writes tables in this order already; others get sorted.
  if (!std::is_sorted(codes->begin(), codes->end(), canonical_order)) {
    std::sort(codes->begin(), codes->end(), canonical_order);
  }
  uint64_t code = 0;
  int prev_len = 0;
  for (SymbolCode& sc : *codes) {
    code <<= (sc.length - prev_len);
    sc.code = code;
    ++code;
    prev_len = sc.length;
  }
}

}  // namespace

void RankSymbols(const std::vector<uint32_t>& symbols,
                 std::vector<uint32_t>* alphabet,
                 std::vector<uint32_t>* ranks) {
  const size_t n = symbols.size();
  // Each key carries its symbol above its position, so sorting groups
  // equal symbols and still says where each came from.
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = (uint64_t{symbols[i]} << 32) | i;
  StableSortByHigh32(&keys);
  alphabet->clear();
  ranks->resize(n);
  for (const uint64_t key : keys) {
    const uint32_t symbol = static_cast<uint32_t>(key >> 32);
    if (alphabet->empty() || alphabet->back() != symbol) {
      alphabet->push_back(symbol);
    }
    (*ranks)[static_cast<uint32_t>(key)] =
        static_cast<uint32_t>(alphabet->size() - 1);
  }
}

Status HuffmanCodec::Encode(const std::vector<uint32_t>& symbols,
                            util::BitWriter* writer,
                            EncodeStats* stats) {
  if (symbols.empty()) {
    // A zero-symbol stream is just a zero-count table: all-escape (or
    // all-raw) chunks in the chunked path encode without caller
    // special-casing and decode back to an empty vector.
    writer->WriteBits(0, 32);
    if (stats != nullptr) stats->overhead_bits += 32;
    return Status::OK();
  }
  if (symbols.size() > UINT32_MAX) {
    return Status::InvalidArgument("Huffman: stream too long");
  }
  // Distinct symbols in ascending order (leaves enter the tree in symbol
  // order, so equal-frequency ties break the same way on every platform)
  // and their frequencies. A dense alphabet is counted straight into a
  // table indexed by symbol, which then maps each symbol to its rank;
  // a sparse one (mgard's escape symbol, lz77 literals) is radix-sorted.
  const size_t n = symbols.size();
  const uint32_t max_symbol =
      *std::max_element(symbols.begin(), symbols.end());
  const bool dense =
      uint64_t{max_symbol} < std::max<uint64_t>(uint64_t{1} << 16, 8 * n);
  std::vector<uint32_t> alphabet, ranks, rank_of;
  std::vector<uint64_t> freqs;
  if (dense) {
    rank_of.assign(size_t{max_symbol} + 1, 0);
    for (const uint32_t s : symbols) ++rank_of[s];
    for (size_t s = 0; s < rank_of.size(); ++s) {
      if (rank_of[s] == 0) continue;
      freqs.push_back(rank_of[s]);
      rank_of[s] = static_cast<uint32_t>(alphabet.size());
      alphabet.push_back(static_cast<uint32_t>(s));
    }
  } else {
    RankSymbols(symbols, &alphabet, &ranks);
    freqs.assign(alphabet.size(), 0);
    for (const uint32_t r : ranks) ++freqs[r];
  }
  const size_t k = alphabet.size();
  const std::vector<int> lengths = ComputeLengths(freqs);

  // Canonical order is (length, symbol). Ranks ascend with symbol, so a
  // stable counting sort of the ranks on length yields it. Fewer than
  // 2^32 symbols keep every length below 64 (a length-L leaf needs a
  // Fibonacci-sized stream).
  std::array<uint32_t, 65> first_of_length{};
  for (const int len : lengths) {
    ++first_of_length[static_cast<size_t>(len) + 1];
  }
  for (size_t len = 1; len < first_of_length.size(); ++len) {
    first_of_length[len] += first_of_length[len - 1];
  }
  std::vector<uint32_t> canonical(k);
  for (size_t r = 0; r < k; ++r) {
    canonical[first_of_length[static_cast<size_t>(lengths[r])]++] =
        static_cast<uint32_t>(r);
  }

  // Table: count, then (symbol: 32 bits, length: 6 bits) in canonical
  // order; codes count upward, shifting left at each longer length (the
  // rule Decode's AssignCanonical applies).
  struct Code {
    uint64_t bits;
    int length;
  };
  std::vector<Code> code_of(k);
  const size_t table_start = writer->bit_count();
  writer->WriteBits(k, 32);
  uint64_t code = 0;
  int prev_len = 0;
  for (const uint32_t r : canonical) {
    code <<= (lengths[r] - prev_len);
    prev_len = lengths[r];
    code_of[r] = Code{code++, lengths[r]};
    writer->WriteBits(alphabet[r], 32);
    writer->WriteBits(static_cast<uint64_t>(lengths[r]), 6);
  }
  const size_t payload_start = writer->bit_count();
  if (dense) {
    for (const uint32_t s : symbols) {
      const Code c = code_of[rank_of[s]];
      writer->WriteBits(c.bits, c.length);
    }
  } else {
    for (const uint32_t r : ranks) {
      writer->WriteBits(code_of[r].bits, code_of[r].length);
    }
  }
  if (stats != nullptr) {
    stats->overhead_bits += payload_start - table_start;
    stats->payload_bits += writer->bit_count() - payload_start;
  }
  return Status::OK();
}

Result<std::vector<uint32_t>> HuffmanCodec::Decode(util::BitReader* reader,
                                                   uint64_t count) {
  EF_ASSIGN_OR_RETURN(uint64_t table_size, reader->ReadBits(32));
  if (table_size > (1ull << 28)) {
    return Status::Corruption("Huffman: bad table size");
  }
  if (table_size == 0) {
    // The empty-stream encoding: valid only for a zero-symbol request.
    if (count != 0) {
      return Status::Corruption("Huffman: empty table with nonzero count");
    }
    return std::vector<uint32_t>{};
  }
  // Each table entry costs 38 bits (32-bit symbol + 6-bit length) in the
  // stream, so a count the remaining payload cannot cover is corruption.
  // Checking before the allocation turns a 4-byte header edit that would
  // otherwise reserve gigabytes into a cheap typed error.
  if (table_size > reader->BitsRemaining() / 38) {
    return Status::Corruption("Huffman: table larger than stream");
  }
  std::vector<SymbolCode> codes(static_cast<size_t>(table_size));
  for (auto& sc : codes) {
    EF_ASSIGN_OR_RETURN(uint64_t sym, reader->ReadBits(32));
    EF_ASSIGN_OR_RETURN(uint64_t len, reader->ReadBits(6));
    if (len == 0 || len > 60) {
      return Status::Corruption("Huffman: bad code length");
    }
    sc.symbol = static_cast<uint32_t>(sym);
    sc.length = static_cast<int>(len);
  }
  // The table is stored in canonical order; reassign codes.
  AssignCanonical(&codes);

  // Validate the code book: a corrupted length table (Kraft sum > 1)
  // yields canonical codes wider than their declared length, which would
  // otherwise index out of bounds below.
  for (const SymbolCode& sc : codes) {
    if (sc.length < 64 && (sc.code >> sc.length) != 0) {
      return Status::Corruption("Huffman: inconsistent code lengths");
    }
  }

  // Fast path: a direct-lookup table covering codes up to kTableBits long
  // (virtually all symbols of a skewed quantization-code distribution).
  constexpr int kTableBits = 12;
  struct Entry {
    uint32_t symbol = 0;
    uint8_t length = 0;  // 0 = not covered (long code).
  };
  std::vector<Entry> table(size_t{1} << kTableBits);
  for (const SymbolCode& sc : codes) {
    if (sc.length > kTableBits) continue;
    const int pad = kTableBits - sc.length;
    const uint64_t first = sc.code << pad;
    const uint64_t span = uint64_t{1} << pad;
    for (uint64_t i = 0; i < span; ++i) {
      table[static_cast<size_t>(first + i)] =
          Entry{sc.symbol, static_cast<uint8_t>(sc.length)};
    }
  }

  // Long codes: canonical length groups past kTableBits, each checked
  // against one peek as wide as the longest code (PeekBits stops at 57
  // bits; the rest of a longer code is peeked past that window).
  struct LengthGroup {
    int length;
    uint64_t first_code;
    uint64_t last_code;  // inclusive
    size_t first_index;
  };
  std::vector<LengthGroup> long_groups;
  for (size_t i = 0; i < codes.size();) {
    size_t j = i;
    while (j < codes.size() && codes[j].length == codes[i].length) ++j;
    if (codes[i].length > kTableBits) {
      long_groups.push_back(LengthGroup{codes[i].length, codes[i].code,
                                        codes[j - 1].code, i});
    }
    i = j;
  }
  constexpr int kMaxPeekBits = 57;
  const int peek_bits = std::min(codes.back().length, kMaxPeekBits);

  // Every decoded symbol consumes at least one payload bit, so an
  // (untrusted) count beyond the remaining bits cannot be satisfied —
  // reject it before reserving count * 4 bytes.
  if (count > reader->BitsRemaining()) {
    return Status::Corruption("Huffman: symbol count exceeds stream");
  }
  std::vector<uint32_t> out;
  out.reserve(static_cast<size_t>(count));
  // The checked step: one symbol, table or long code, at any position.
  auto decode_one = [&]() -> Status {
    const Entry e = table[static_cast<size_t>(reader->PeekBits(kTableBits))];
    if (e.length != 0) {
      if (reader->BitsRemaining() < e.length) {
        return Status::Corruption("Huffman: stream exhausted");
      }
      reader->SkipBits(e.length);
      out.push_back(e.symbol);
      return Status::OK();
    }
    // In a canonical code, a longer code's first L bits lie above every
    // length-L code, so the first group whose range holds the prefix wins.
    const uint64_t window = reader->PeekBits(peek_bits);
    const LengthGroup* match = nullptr;
    uint64_t prefix = 0;
    for (const LengthGroup& g : long_groups) {
      if (g.length <= peek_bits) {
        prefix = window >> (peek_bits - g.length);
      } else {
        util::BitReader rest = *reader;
        rest.SkipBits(peek_bits);
        prefix = (window << (g.length - peek_bits)) |
                 rest.PeekBits(g.length - peek_bits);
      }
      if (prefix >= g.first_code && prefix <= g.last_code) {
        match = &g;
        break;
      }
    }
    if (match == nullptr) {
      return Status::Corruption("Huffman: invalid code word");
    }
    if (reader->BitsRemaining() < static_cast<size_t>(match->length)) {
      return Status::Corruption("Huffman: stream exhausted");
    }
    reader->SkipBits(match->length);
    out.push_back(codes[match->first_index + (prefix - match->first_code)]
                      .symbol);
    return Status::OK();
  };
  while (out.size() < count) {
    // Fast path: while 64 bits remain, one 8-byte load holds 57 unread
    // bits of the stream, and table codes decode from that window in
    // registers until fewer than kTableBits of it are left or a long
    // code comes up. Every code it takes lies inside the stream, so the
    // checked step's exhaustion test cannot fire on it.
    if (reader->BitsRemaining() >= 64) {
      uint64_t window = reader->PeekBits(kMaxPeekBits) << (64 - kMaxPeekBits);
      int used = 0;
      bool long_code = false;
      while (used <= kMaxPeekBits - kTableBits && out.size() < count) {
        const Entry e = table[window >> (64 - kTableBits)];
        if (e.length == 0) {
          long_code = true;
          break;
        }
        window <<= e.length;
        used += e.length;
        out.push_back(e.symbol);
      }
      reader->SkipBits(used);
      if (!long_code) continue;
    }
    // A long code, or the last 8 bytes of the stream.
    EF_RETURN_IF_ERROR(decode_one());
  }
  return out;
}

}  // namespace compress
}  // namespace errorflow
