#include "compress/codec/huffman.h"

#include <algorithm>
#include <array>
#include <bit>
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
// every key shares (so one or two passes for small values). Each pass
// runs four quarters of the keys side by side, with counters of their
// own, so that runs of one byte value do not chain every counter update
// through memory.
void StableSortByHigh32(std::vector<uint64_t>* keys) {
  uint32_t any = 0, all = ~uint32_t{0};
  for (const uint64_t key : *keys) {
    any |= static_cast<uint32_t>(key >> 32);
    all &= static_cast<uint32_t>(key >> 32);
  }
  const uint32_t varying = any & ~all;  // Bits on which keys differ.
  constexpr size_t kParts = 4;
  const size_t n = keys->size();
  const size_t quarter = n / kParts;  // The last part also takes the rest.
  std::vector<uint64_t> scratch;
  for (int shift = 32; shift < 64; shift += 8) {
    if (((varying >> (shift - 32)) & 0xFF) == 0) continue;
    const uint64_t* in = keys->data();
    const auto digit = [shift](uint64_t key) {
      return static_cast<size_t>((key >> shift) & 0xFF);
    };
    uint32_t count[kParts][256] = {};
    for (size_t t = 0; t < quarter; ++t) {
      for (size_t p = 0; p < kParts; ++p) {
        ++count[p][digit(in[p * quarter + t])];
      }
    }
    for (size_t i = kParts * quarter; i < n; ++i) {
      ++count[kParts - 1][digit(in[i])];
    }
    // Part p's keys of digit d go after every smaller digit's keys and
    // after the earlier parts' keys of digit d.
    uint32_t offset = 0;
    for (size_t d = 0; d < 256; ++d) {
      for (size_t p = 0; p < kParts; ++p) {
        offset += std::exchange(count[p][d], offset);
      }
    }
    scratch.resize(n);
    uint64_t* out = scratch.data();
    for (size_t t = 0; t < quarter; ++t) {
      for (size_t p = 0; p < kParts; ++p) {
        const uint64_t key = in[p * quarter + t];
        out[count[p][digit(key)]++] = key;
      }
    }
    for (size_t i = kParts * quarter; i < n; ++i) {
      out[count[kParts - 1][digit(in[i])]++] = in[i];
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

// Alphabets up to this many slots are counted four ways per symbol.
constexpr size_t kNarrowSlots = size_t{1} << 13;

// Counts a dense stream (every symbol <= `max_symbol`): appends its
// distinct symbols in ascending order to `alphabet` and their frequencies
// to `freqs`, and fills `table` so that an occurring symbol's rank is at
// [symbol * ways]. Returns ways.
//
// A narrow alphabet gets four interleaved counters per symbol, consecutive
// positions going to consecutive ones, so a run of one hot symbol does not
// chain every increment through memory; the table is then scanned 16
// symbols at a time. A wide one gets one counter per symbol, and four
// occupancy bitmaps, filled the same interleaved way, say where the few
// occurring symbols are.
size_t CountDense(const std::vector<uint32_t>& symbols, uint32_t max_symbol,
                  std::vector<uint32_t>* alphabet,
                  std::vector<uint64_t>* freqs,
                  std::vector<uint32_t>* table) {
  constexpr size_t kWays = 4;
  constexpr size_t kBlock = 16;
  const size_t slots = size_t{max_symbol} + 1;
  const uint32_t* sym = symbols.data();
  const size_t n = symbols.size();
  const size_t interleaved = n / kWays * kWays;
  if (slots <= kNarrowSlots) {
    table->assign((slots + kBlock) * kWays, 0);
    uint32_t* c = table->data();
    for (size_t i = 0; i < interleaved; i += kWays) {
      for (size_t w = 0; w < kWays; ++w) ++c[sym[i + w] * kWays + w];
    }
    for (size_t i = interleaved; i < n; ++i) ++c[sym[i] * kWays];
    for (size_t block = 0; block < slots; block += kBlock) {
      uint32_t occupied = 0;  // One bit per symbol of the block.
      for (size_t i = 0; i < kBlock; ++i) {
        const uint32_t* at = c + (block + i) * kWays;
        occupied |= static_cast<uint32_t>((at[0] | at[1] | at[2] | at[3]) != 0)
                    << i;
      }
      for (; occupied != 0; occupied &= occupied - 1) {
        const size_t s =
            block + static_cast<size_t>(std::countr_zero(occupied));
        uint32_t* at = c + s * kWays;
        freqs->push_back(uint64_t{at[0]} + at[1] + at[2] + at[3]);
        at[0] = static_cast<uint32_t>(alphabet->size());
        alphabet->push_back(static_cast<uint32_t>(s));
      }
    }
    return kWays;
  }
  const size_t words = (slots + 63) / 64;
  table->assign(slots, 0);
  std::vector<uint64_t> seen(kWays * words, 0);
  uint32_t* c = table->data();
  uint64_t* bits = seen.data();
  for (size_t i = 0; i < interleaved; i += kWays) {
    for (size_t w = 0; w < kWays; ++w) {
      const uint32_t s = sym[i + w];
      ++c[s];
      bits[w * words + s / 64] |= uint64_t{1} << (s % 64);
    }
  }
  for (size_t i = interleaved; i < n; ++i) {
    ++c[sym[i]];
    bits[sym[i] / 64] |= uint64_t{1} << (sym[i] % 64);
  }
  for (size_t word = 0; word < words; ++word) {
    uint64_t occupied = 0;
    for (size_t w = 0; w < kWays; ++w) occupied |= bits[w * words + word];
    for (; occupied != 0; occupied &= occupied - 1) {
      const size_t s =
          word * 64 + static_cast<size_t>(std::countr_zero(occupied));
      freqs->push_back(c[s]);
      c[s] = static_cast<uint32_t>(alphabet->size());
      alphabet->push_back(static_cast<uint32_t>(s));
    }
  }
  return 1;
}

// The format's code rule (Encode applies it through a counting sort):
// sort by (length, symbol), then count upward, shifting left at each
// longer length.
void AssignCanonical(std::vector<SymbolCode>* codes) {
  std::sort(codes->begin(), codes->end(),
            [](const SymbolCode& a, const SymbolCode& b) {
              if (a.length != b.length) return a.length < b.length;
              return a.symbol < b.symbol;
            });
  uint64_t code = 0;
  int prev_len = 0;
  for (SymbolCode& sc : *codes) {
    code <<= (sc.length - prev_len);
    sc.code = code;
    ++code;
    prev_len = sc.length;
  }
}

// Sorts a copy of `symbols` to find its distinct values, in ascending
// order (`alphabet`), and for each position the index of its value in
// `alphabet` (`ranks`). No hashing, so everything built from the result
// is independent of hash-table iteration order. Requires fewer than 2^32
// symbols.
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

}  // namespace

Status HuffmanCodec::Encode(const std::vector<uint32_t>& symbols,
                            util::BitWriter* writer,
                            EncodeStats* stats) {
  writer->Reserve(CompressBound(symbols.size()));
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
  // a sparse one (mgard's escape symbol) is radix-sorted.
  const size_t n = symbols.size();
  // Four running maxima, so the compares do not form one chain.
  const uint32_t* sym = symbols.data();
  uint32_t m0 = 0, m1 = 0, m2 = 0, m3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    m0 = std::max(m0, sym[i]);
    m1 = std::max(m1, sym[i + 1]);
    m2 = std::max(m2, sym[i + 2]);
    m3 = std::max(m3, sym[i + 3]);
  }
  for (; i < n; ++i) m0 = std::max(m0, sym[i]);
  const uint32_t max_symbol = std::max(std::max(m0, m1), std::max(m2, m3));
  const bool dense =
      uint64_t{max_symbol} < std::max<uint64_t>(uint64_t{1} << 16, 8 * n);
  std::vector<uint32_t> alphabet, ranks, rank_table;
  std::vector<uint64_t> freqs;
  size_t ways = 0;
  if (dense) {
    ways = CountDense(symbols, max_symbol, &alphabet, &freqs, &rank_table);
  } else {
    RankSymbols(symbols, &alphabet, &ranks);
    freqs.assign(alphabet.size(), 0);
    for (const uint32_t r : ranks) ++freqs[r];
  }
  const size_t k = alphabet.size();
  const std::vector<int> lengths = ComputeLengths(freqs);

  // Canonical order is (length, symbol). Ranks ascend with symbol, so a
  // stable counting sort of the ranks on length yields it. Fewer than
  // 2^32 symbols keep every length below 48 (a length-L code needs a
  // stream of at least Fibonacci(L + 1) symbols), within the 56 bits
  // WriteCodes takes.
  std::array<uint32_t, 65> first_of_length{};
  size_t payload_bits = 0;
  for (size_t r = 0; r < k; ++r) {
    ++first_of_length[static_cast<size_t>(lengths[r]) + 1];
    payload_bits += freqs[r] * static_cast<size_t>(lengths[r]);
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
  std::vector<util::BitWriter::Code> code_of(k);
  uint64_t code = 0;
  int prev_len = 0;
  for (const uint32_t r : canonical) {
    code <<= (lengths[r] - prev_len);
    prev_len = lengths[r];
    code_of[r] = {code++, lengths[r]};
  }
  const size_t table_start = writer->bit_count();
  writer->WriteBits(k, 32);
  writer->WriteCodes(k, 38 * k,
                     [order = canonical.data(), symbol = alphabet.data(),
                      code = code_of.data()](size_t i) {
                       const uint32_t r = order[i];
                       return util::BitWriter::Code{
                           (uint64_t{symbol[r]} << 6) |
                               static_cast<uint64_t>(code[r].length),
                           38};
                     });
  const size_t payload_start = writer->bit_count();
  if (dense) {
    // Plain pointers captured by value stay in registers across the
    // writer's byte stores.
    writer->WriteCodes(n, payload_bits,
                       [code = code_of.data(), rank = rank_table.data(),
                        sym = symbols.data(), ways](size_t i) {
                         return code[rank[sym[i] * ways]];
                       });
  } else {
    writer->WriteCodes(n, payload_bits,
                       [code = code_of.data(), rank = ranks.data()](
                           size_t i) { return code[rank[i]]; });
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
  // otherwise reserve gigabytes into a cheap typed error. It also puts
  // every entry inside the stream, so each is one unchecked peek.
  if (table_size > reader->BitsRemaining() / 38) {
    return Status::Corruption("Huffman: table larger than stream");
  }
  // Encode writes the table in canonical (length, symbol) order, so codes
  // are assigned, and checked, as the entries are read; a table in any
  // other order is sorted and assigned again after.
  std::vector<SymbolCode> codes(static_cast<size_t>(table_size));
  bool canonical = true, consistent = true;
  uint64_t code = 0;
  int prev_len = 0;
  uint32_t prev_symbol = 0;
  for (auto& sc : codes) {
    const uint64_t entry = reader->PeekBits(38);
    reader->SkipBits(38);
    const int len = static_cast<int>(entry & 63);
    if (len == 0 || len > 60) {
      return Status::Corruption("Huffman: bad code length");
    }
    sc.symbol = static_cast<uint32_t>(entry >> 6);
    sc.length = len;
    canonical = canonical && (len > prev_len || (len == prev_len &&
                                                 sc.symbol >= prev_symbol));
    if (canonical) {
      code <<= (len - prev_len);
      sc.code = code++;
      // A corrupted length table (Kraft sum > 1) yields canonical codes
      // wider than their declared length, which would otherwise index out
      // of bounds below.
      consistent = consistent && (sc.code >> len) == 0;
    }
    prev_len = len;
    prev_symbol = sc.symbol;
  }
  if (!canonical) {
    AssignCanonical(&codes);
    consistent = std::all_of(codes.begin(), codes.end(),
                             [](const SymbolCode& sc) {
                               return (sc.code >> sc.length) == 0;
                             });
  }
  if (!consistent) {
    return Status::Corruption("Huffman: inconsistent code lengths");
  }

  // Two-level lookup. The root is indexed by the next kRootBits bits of
  // the stream (2048 entries of 8 bytes, which stay in L1). An entry holds
  // the code those bits start with; or that code and the next when both
  // fit and both symbols are below 2^16; or it points to a sub-table
  // indexed by the bits after them. Codes too long for their sub-table,
  // and words that start no code, have no entry: the checked step decides
  // them. The tables depend on the code table alone, so Decode with a
  // count of 0 builds them as any other count does.
  constexpr int kRootBits = 11;
  constexpr int kMaxSubBits = 10;
  struct RootEntry {
    // The symbol; two 16-bit symbols, the first low, when `symbols` is 2;
    // the first sub-table entry when it is 0.
    uint32_t value;
    uint8_t bits;        // Bits the symbols take.
    uint8_t first_bits;  // Bits the first symbol takes.
    uint8_t symbols;     // 1 or 2; 0 when no code fits the root.
    uint8_t sub_bits;    // Index width of the sub-table; 0 = none.
    uint32_t First() const { return symbols == 2 ? value & 0xFFFF : value; }
  };
  struct SubEntry {
    uint32_t symbol;
    uint32_t bits;  // The code's whole length; 0 = no entry.
  };
  std::vector<RootEntry> root(size_t{1} << kRootBits);
  std::vector<SubEntry> sub;
  // Bits one lookup may take: a root index (a pair's two codes fill at
  // most that), or the longest code a sub-table holds.
  int fast_bits = kRootBits;
  // Codes are in canonical order: ascending left-aligned values, so the
  // codes that share a root prefix are consecutive.
  size_t short_end = 0;
  for (; short_end < codes.size() && codes[short_end].length <= kRootBits;
       ++short_end) {
    const SymbolCode& sc = codes[short_end];
    const int pad = kRootBits - sc.length;
    const auto len = static_cast<uint8_t>(sc.length);
    std::fill_n(root.begin() + static_cast<ptrdiff_t>(sc.code << pad),
                size_t{1} << pad, RootEntry{sc.symbol, len, len, 1, 0});
  }
  // Pairs, code by code: the root indices that start with code a and then
  // hold all of code b. Lengths ascend, so each a stops at the first b
  // too long; every pair covers root entries no other pair does.
  for (size_t a = 0; a < short_end; ++a) {
    const SymbolCode& first = codes[a];
    for (size_t b = 0;
         b < short_end && first.length + codes[b].length <= kRootBits; ++b) {
      const SymbolCode& next = codes[b];
      if (first.symbol > 0xFFFF || next.symbol > 0xFFFF) continue;
      const int pad = kRootBits - first.length - next.length;
      const uint64_t index = ((first.code << next.length) | next.code) << pad;
      std::fill_n(root.begin() + static_cast<ptrdiff_t>(index),
                  size_t{1} << pad,
                  RootEntry{first.symbol | (next.symbol << 16),
                            static_cast<uint8_t>(first.length + next.length),
                            static_cast<uint8_t>(first.length), 2, 0});
    }
  }
  // Sub-tables: one per root prefix of the longer codes, sized first and
  // then filled.
  const auto prefix_of = [](const SymbolCode& sc) {
    return static_cast<size_t>(sc.code >> (sc.length - kRootBits));
  };
  size_t sub_size = 0;
  for (size_t i = short_end; i < codes.size();) {
    const size_t prefix = prefix_of(codes[i]);
    size_t j = i;
    while (j < codes.size() && prefix_of(codes[j]) == prefix) ++j;
    // Longest code last. At most 16 slots per code of the group, so a
    // hostile table cannot make the sub-tables outgrow the stream.
    const int sub_bits =
        std::min({codes[j - 1].length - kRootBits, kMaxSubBits,
                  static_cast<int>(std::bit_width(j - i)) + 3});
    root[prefix].value = static_cast<uint32_t>(sub_size);
    root[prefix].sub_bits = static_cast<uint8_t>(sub_bits);
    sub_size += size_t{1} << sub_bits;
    i = j;
  }
  sub.resize(sub_size);
  for (size_t i = short_end; i < codes.size(); ++i) {
    const SymbolCode& sc = codes[i];
    const RootEntry& e = root[prefix_of(sc)];
    const int pad = kRootBits + e.sub_bits - sc.length;
    if (pad < 0) continue;  // Too long for the sub-table.
    const uint64_t rest =
        sc.code & ((uint64_t{1} << (sc.length - kRootBits)) - 1);
    std::fill_n(sub.begin() + static_cast<ptrdiff_t>(e.value + (rest << pad)),
                size_t{1} << pad,
                SubEntry{sc.symbol, static_cast<uint32_t>(sc.length)});
    fast_bits = std::max(fast_bits, sc.length);
  }
  // The sub-table entry for the bits after a root entry's index.
  const auto sub_entry = [&](const RootEntry& e, uint64_t window) {
    return e.sub_bits == 0
               ? SubEntry{0, 0}
               : sub[e.value + ((window << kRootBits) >> (64 - e.sub_bits))];
  };

  // Codes past the tables: canonical length groups longer than kRootBits,
  // each checked against one peek as wide as the longest code (PeekBits
  // stops at 57 bits; the rest of a longer code is peeked past that
  // window).
  struct LengthGroup {
    int length;
    uint64_t first_code;
    uint64_t last_code;  // inclusive
    size_t first_index;
  };
  std::vector<LengthGroup> long_groups;
  for (size_t g = 0; g < codes.size();) {
    size_t h = g;
    while (h < codes.size() && codes[h].length == codes[g].length) ++h;
    if (codes[g].length > kRootBits) {
      long_groups.push_back(LengthGroup{codes[g].length, codes[g].code,
                                        codes[h - 1].code, g});
    }
    g = h;
  }
  constexpr int kMaxPeekBits = 57;
  const int peek_bits = std::min(codes.back().length, kMaxPeekBits);

  // Every decoded symbol consumes at least one payload bit, so an
  // (untrusted) count beyond the remaining bits cannot be satisfied —
  // reject it before allocating count * 4 bytes.
  if (count > reader->BitsRemaining()) {
    return Status::Corruption("Huffman: symbol count exceeds stream");
  }
  // One slot of slack: a pair entry stores its second symbol even when
  // only its first is taken.
  std::vector<uint32_t> out(static_cast<size_t>(count) + 1);
  uint32_t* dst = out.data();
  size_t n = 0;
  // The checked step: one symbol at any position, looked up in the
  // zero-padded window. A stream that ends inside the code, or a word that
  // starts none, fails as the per-symbol reference decoder does.
  auto decode_one = [&]() -> Status {
    const uint64_t window = reader->PeekBits(kMaxPeekBits)
                            << (64 - kMaxPeekBits);
    const RootEntry& e = root[window >> (64 - kRootBits)];
    uint32_t symbol = e.First();
    int length = e.first_bits;
    if (e.symbols == 0) {
      const SubEntry s = sub_entry(e, window);
      symbol = s.symbol;
      length = static_cast<int>(s.bits);
    }
    if (length == 0) {
      // In a canonical code, a longer code's first L bits lie above every
      // length-L code, so the first group whose range holds the prefix
      // wins.
      const uint64_t peek = window >> (64 - peek_bits);
      const LengthGroup* match = nullptr;
      uint64_t prefix = 0;
      for (const LengthGroup& g : long_groups) {
        if (g.length <= peek_bits) {
          prefix = peek >> (peek_bits - g.length);
        } else {
          util::BitReader rest = *reader;
          rest.SkipBits(peek_bits);
          prefix = (peek << (g.length - peek_bits)) |
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
      symbol = codes[match->first_index + (prefix - match->first_code)].symbol;
      length = match->length;
    }
    if (reader->BitsRemaining() < static_cast<size_t>(length)) {
      return Status::Corruption("Huffman: stream exhausted");
    }
    reader->SkipBits(length);
    dst[n++] = symbol;
    return Status::OK();
  };
  while (n < count) {
    // Fast path: while 64 bits remain, one 8-byte load holds 57 unread
    // bits of the stream, and codes decode from that window in registers
    // until fewer than fast_bits of it are left, fewer than two symbols
    // are due, or a code the tables do not hold comes up. Every code it
    // takes lies inside the stream, so the checked step's exhaustion test
    // cannot fire on it.
    if (reader->BitsRemaining() >= 64 && n + 2 <= count) {
      uint64_t window = reader->PeekBits(kMaxPeekBits) << (64 - kMaxPeekBits);
      int used = 0;
      bool held = true;
      while (used <= kMaxPeekBits - fast_bits && n + 2 <= count) {
        const RootEntry e = root[window >> (64 - kRootBits)];
        if (e.symbols != 0) {
          dst[n] = e.First();
          dst[n + 1] = e.value >> 16;
          n += e.symbols;
          window <<= e.bits;
          used += e.bits;
          continue;
        }
        const SubEntry s = sub_entry(e, window);
        if (s.bits == 0) {
          held = false;
          break;
        }
        dst[n++] = s.symbol;
        window <<= s.bits;
        used += static_cast<int>(s.bits);
      }
      reader->SkipBits(used);
      if (held) continue;
    }
    // A code past the tables, the last symbol, or the last 8 bytes of the
    // stream.
    EF_RETURN_IF_ERROR(decode_one());
  }
  out.resize(static_cast<size_t>(count));
  return out;
}

}  // namespace compress
}  // namespace errorflow
