#include "compress/mgard.h"

#include <cmath>
#include <cstring>

#include "compress/bound_util.h"
#include "compress/codec/huffman.h"
#include "util/bytes.h"
#include "util/timer.h"

namespace errorflow {
namespace compress {

namespace {

constexpr uint32_t kMagic = 0x454D4732;    // "EMG2" (legacy: no codec byte)
constexpr uint32_t kMagicV2 = 0x454D4733;  // "EMG3" (codec byte after magic)
// Codes at or beyond this magnitude take the escape path (raw doubles).
constexpr int64_t kEscapeThreshold = 1ll << 28;
constexpr uint32_t kEscapeSymbol = 0xFFFFFFFFu;
constexpr int64_t kMinCoarseElems = 16;
constexpr int kMaxLevels = 14;

// ----- 1-D building blocks ---------------------------------------------
//
// AnalyzeLine: evens -> coarse, odd deviations from linear interpolation
// of their coarse neighbors -> details (the multigrid correction).

void AnalyzeLine(const double* a, int64_t m, int64_t stride, double* coarse,
                 double* details) {
  const int64_t nc = (m + 1) / 2, nd = m / 2;
  for (int64_t k = 0; k < nc; ++k) coarse[k] = a[2 * k * stride];
  for (int64_t k = 0; k < nd; ++k) {
    const double left = a[2 * k * stride];
    const double right =
        (2 * k + 2 < m) ? a[(2 * k + 2) * stride] : a[2 * k * stride];
    details[k] = a[(2 * k + 1) * stride] - 0.5 * (left + right);
  }
}

void SynthesizeLine(const double* coarse, const double* details, int64_t m,
                    int64_t stride, double* out) {
  const int64_t nc = (m + 1) / 2, nd = m / 2;
  for (int64_t k = 0; k < nc; ++k) out[2 * k * stride] = coarse[k];
  for (int64_t k = 0; k < nd; ++k) {
    const double left = out[2 * k * stride];
    const double right =
        (2 * k + 2 < m) ? coarse[k + 1] : out[2 * k * stride];
    out[(2 * k + 1) * stride] = 0.5 * (left + right) + details[k];
  }
}

// ----- 2-D multilevel hierarchy ------------------------------------------
//
// One level on an (r x c) grid:
//   pass 1 (columns direction, i.e. along each row): every row of length c
//     -> coarse row of length cc = ceil(c/2) + cd = floor(c/2) details.
//   pass 2 (rows direction, on the r x cc row-coarse grid): every column
//     -> coarse column of length rc = ceil(r/2) + rd = floor(r/2) details.
// The coarse (rc x cc) grid recurses. Both detail sets quantize at this
// level. Bilinear synthesis applies the two interpolation passes in
// reverse; each pass has Linf gain <= 1 and injects one detail error, so
// per level the Linf error grows by at most 2*delta plus the coarse error.

struct Level {
  int64_t rows = 0, cols = 0;          // Grid extent entering this level.
  std::vector<double> col_details;     // r x floor(c/2)
  std::vector<double> row_details;     // floor(r/2) x ceil(c/2)
};

struct Hierarchy {
  std::vector<Level> levels;     // Finest first.
  std::vector<double> coarse;    // Final coarse grid, rc x cc of last level.
  int64_t coarse_rows = 0, coarse_cols = 0;
};

// Computes the level geometry for an (rows x cols) input; shared by the
// encoder and decoder (which reconstructs it from the stored shape).
std::vector<std::pair<int64_t, int64_t>> LevelGeometry(int64_t rows,
                                                       int64_t cols) {
  std::vector<std::pair<int64_t, int64_t>> out;
  int64_t r = rows, c = cols;
  while (r * c > kMinCoarseElems && (r > 1 || c > 1) &&
         static_cast<int>(out.size()) < kMaxLevels) {
    out.push_back({r, c});
    c = (c + 1) / 2;
    r = (r + 1) / 2;
  }
  return out;
}

Hierarchy Analyze(const Tensor& data, int64_t rows, int64_t cols) {
  Hierarchy h;
  std::vector<double> grid(static_cast<size_t>(rows * cols));
  for (int64_t i = 0; i < data.size(); ++i) {
    grid[static_cast<size_t>(i)] = data[i];
  }
  for (const auto& [r, c] : LevelGeometry(rows, cols)) {
    Level level;
    level.rows = r;
    level.cols = c;
    const int64_t cc = (c + 1) / 2, cd = c / 2;
    const int64_t rc = (r + 1) / 2, rd = r / 2;
    // Pass 1: along rows.
    std::vector<double> row_coarse(static_cast<size_t>(r * cc));
    level.col_details.resize(static_cast<size_t>(r * cd));
    for (int64_t i = 0; i < r; ++i) {
      AnalyzeLine(grid.data() + i * c, c, 1, row_coarse.data() + i * cc,
                  level.col_details.data() + i * cd);
    }
    // Pass 2: along columns of the row-coarse grid.
    std::vector<double> next(static_cast<size_t>(rc * cc));
    level.row_details.resize(static_cast<size_t>(rd * cc));
    std::vector<double> col_in(static_cast<size_t>(r));
    std::vector<double> col_coarse(static_cast<size_t>(rc));
    std::vector<double> col_det(static_cast<size_t>(rd));
    for (int64_t j = 0; j < cc; ++j) {
      for (int64_t i = 0; i < r; ++i) {
        col_in[static_cast<size_t>(i)] = row_coarse[i * cc + j];
      }
      AnalyzeLine(col_in.data(), r, 1, col_coarse.data(), col_det.data());
      for (int64_t i = 0; i < rc; ++i) {
        next[i * cc + j] = col_coarse[static_cast<size_t>(i)];
      }
      for (int64_t i = 0; i < rd; ++i) {
        level.row_details[i * cc + j] = col_det[static_cast<size_t>(i)];
      }
    }
    grid = std::move(next);
    h.levels.push_back(std::move(level));
  }
  h.coarse = std::move(grid);
  if (h.levels.empty()) {
    h.coarse_rows = rows;
    h.coarse_cols = cols;
  } else {
    h.coarse_rows = (h.levels.back().rows + 1) / 2;
    h.coarse_cols = (h.levels.back().cols + 1) / 2;
  }
  return h;
}

std::vector<double> Synthesize(const Hierarchy& h) {
  std::vector<double> grid = h.coarse;
  int64_t gr = h.coarse_rows, gc = h.coarse_cols;
  for (size_t li = h.levels.size(); li-- > 0;) {
    const Level& level = h.levels[li];
    const int64_t r = level.rows, c = level.cols;
    const int64_t cc = (c + 1) / 2, cd = c / 2, rd = r / 2;
    EF_CHECK(gr == (r + 1) / 2 && gc == cc);
    // Inverse pass 2: columns.
    std::vector<double> row_coarse(static_cast<size_t>(r * cc));
    std::vector<double> col_coarse(static_cast<size_t>(gr));
    std::vector<double> col_out(static_cast<size_t>(r));
    for (int64_t j = 0; j < cc; ++j) {
      for (int64_t i = 0; i < gr; ++i) {
        col_coarse[static_cast<size_t>(i)] = grid[i * gc + j];
      }
      std::vector<double> col_det(static_cast<size_t>(rd));
      for (int64_t i = 0; i < rd; ++i) {
        col_det[static_cast<size_t>(i)] = level.row_details[i * cc + j];
      }
      SynthesizeLine(col_coarse.data(), col_det.data(), r, 1,
                     col_out.data());
      for (int64_t i = 0; i < r; ++i) {
        row_coarse[i * cc + j] = col_out[static_cast<size_t>(i)];
      }
    }
    // Inverse pass 1: rows.
    std::vector<double> out(static_cast<size_t>(r * c));
    for (int64_t i = 0; i < r; ++i) {
      SynthesizeLine(row_coarse.data() + i * cc,
                     level.col_details.data() + i * cd, c, 1,
                     out.data() + i * c);
    }
    grid = std::move(out);
    gr = r;
    gc = c;
  }
  return grid;
}

// Quantizes every coefficient with bin width 2*delta, appending huffman
// symbols (or escapes), returning the dequantized hierarchy.
Hierarchy QuantizeHierarchy(const Hierarchy& h, double delta,
                            std::vector<uint32_t>* symbols,
                            std::vector<double>* escapes) {
  Hierarchy q = h;
  auto quantize_vec = [&](std::vector<double>* vec) {
    for (double& v : *vec) {
      const double code = std::nearbyint(v / (2.0 * delta));
      if (std::fabs(code) >= static_cast<double>(kEscapeThreshold)) {
        symbols->push_back(kEscapeSymbol);
        escapes->push_back(v);  // Stored exactly.
      } else {
        const int64_t c = static_cast<int64_t>(code);
        symbols->push_back(ZigzagEncode(static_cast<int32_t>(c)));
        v = static_cast<double>(c) * 2.0 * delta;
      }
    }
  };
  for (Level& level : q.levels) {
    quantize_vec(&level.col_details);
    quantize_vec(&level.row_details);
  }
  quantize_vec(&q.coarse);
  return q;
}

int64_t CoefficientCount(const Hierarchy& h) {
  int64_t n = static_cast<int64_t>(h.coarse.size());
  for (const Level& level : h.levels) {
    n += static_cast<int64_t>(level.col_details.size() +
                              level.row_details.size());
  }
  return n;
}

// One candidate encoding plus its achieved errors against the input.
struct Candidate {
  std::vector<uint32_t> symbols;
  std::vector<double> escapes;
  std::vector<float> recon;
  double linf_err = 0.0;
  double l2_err = 0.0;
};

Candidate EncodeWithDelta(const Tensor& data, const Hierarchy& h,
                          double delta) {
  Candidate cand;
  const Hierarchy q =
      QuantizeHierarchy(h, delta, &cand.symbols, &cand.escapes);
  const std::vector<double> recon = Synthesize(q);
  cand.recon.resize(recon.size());
  double sum2 = 0.0, worst = 0.0;
  for (size_t i = 0; i < recon.size(); ++i) {
    cand.recon[i] = static_cast<float>(recon[i]);
    const double d = static_cast<double>(cand.recon[i]) -
                     data[static_cast<int64_t>(i)];
    sum2 += d * d;
    worst = std::max(worst, std::fabs(d));
  }
  cand.linf_err = worst;
  cand.l2_err = std::sqrt(sum2);
  return cand;
}

}  // namespace

Result<Compressed> MgardCompressor::Compress(const Tensor& data,
                                             const ErrorBound& bound) {
  if (data.size() == 0) {
    return Status::InvalidArgument("mgard: empty tensor");
  }
  util::Stopwatch timer;
  EF_ASSIGN_OR_RETURN(const double abs_tol, ResolveAbsoluteBound(data, bound));
  const int64_t n = data.size();
  int64_t slices, rows, cols;
  CollapseTo3d(data.shape(), &slices, &rows, &cols);
  const int64_t grid_rows = slices * rows;  // 2-D view of the field.
  const Hierarchy h = Analyze(data, grid_rows, cols);
  const int levels = static_cast<int>(h.levels.size());

  double pointwise_eb = 0.0;  // Linf mode: per-element guarantee target.
  double l2_tol = 0.0;        // L2 mode: total budget.
  double delta;
  if (bound.norm == Norm::kLinf) {
    pointwise_eb = abs_tol;
    // Each synthesis level applies two interpolation passes (Linf gain
    // <= 1 each) and injects two detail errors, so the errors telescope:
    // total <= (2 * levels + 1) * delta.
    delta = pointwise_eb / static_cast<double>(2 * levels + 1);
  } else {
    l2_tol = abs_tol;
    delta = l2_tol / std::sqrt(static_cast<double>(n));
  }

  Candidate cand;
  double resolved = delta * (2 * levels + 1);
  if (delta > 0.0) {
    cand = EncodeWithDelta(data, h, delta);
    if (bound.norm == Norm::kL2) {
      // Verify-and-shrink loop (MGARD's native L2 control): keep the
      // first candidate whose *measured* reconstruction error fits.
      for (int iter = 0; iter < 12 && cand.l2_err > l2_tol; ++iter) {
        delta *= std::max(0.25, l2_tol / cand.l2_err) * 0.7;
        cand = EncodeWithDelta(data, h, delta);
      }
      resolved = l2_tol;
    }
  } else {
    // Lossless fallback: everything escapes.
    resolved = 0.0;
    auto escape_all = [&cand](const std::vector<double>& vec) {
      for (double v : vec) {
        cand.symbols.push_back(kEscapeSymbol);
        cand.escapes.push_back(v);
      }
    };
    for (const Level& level : h.levels) {
      escape_all(level.col_details);
      escape_all(level.row_details);
    }
    escape_all(h.coarse);
    cand.recon.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      cand.recon[static_cast<size_t>(i)] = data[i];
    }
  }

  // Patch list: any element whose float reconstruction still violates the
  // pointwise bound (possible under extreme dynamic range, where the
  // interpolation cancels catastrophically) is stored exactly. Keeps the
  // Linf guarantee unconditional.
  std::vector<std::pair<int64_t, float>> patches;
  if (bound.norm == Norm::kLinf && pointwise_eb > 0.0) {
    for (int64_t i = 0; i < n; ++i) {
      const double err =
          std::fabs(static_cast<double>(cand.recon[static_cast<size_t>(i)]) -
                    data[i]);
      if (err > pointwise_eb) {
        patches.push_back({i, data[i]});
      }
    }
  }

  util::ByteWriter header;
  header.PutU32(kMagicV2);
  header.PutU8(static_cast<uint8_t>(CodecId::kHuffman));
  header.PutShape(data.shape());
  header.PutF64(delta);
  header.PutU32(static_cast<uint32_t>(levels));
  header.PutU64(cand.escapes.size());
  header.Raw(cand.escapes.data(), cand.escapes.size() * sizeof(double));
  header.PutU64(patches.size());
  int64_t prev = -1;
  for (const auto& [idx, value] : patches) {
    header.PutVarint64(static_cast<uint64_t>(idx - prev - 1));
    header.PutF32(value);
    prev = idx;
  }

  util::BitWriter bits;
  EncodeStats stats;
  EF_RETURN_IF_ERROR(HuffmanCodec::Encode(cand.symbols, &bits, &stats));
  RecordCodecEncode(*GetCodec(CodecId::kHuffman), cand.symbols.size(),
                    stats);
  std::string blob = header.Finish();
  blob += bits.Finish();

  Compressed out;
  out.blob = std::move(blob);
  out.original_bytes = n * static_cast<int64_t>(sizeof(float));
  out.resolved_abs_tolerance = resolved;
  out.seconds = timer.ElapsedSeconds();
  return out;
}

Result<Decompressed> MgardCompressor::Decompress(const std::string& blob) {
  util::Stopwatch timer;
  util::ByteReader reader(blob);
  EF_ASSIGN_OR_RETURN(uint32_t magic, reader.GetU32());
  // EMG3 carries a codec-negotiation byte; legacy EMG2 streams are
  // implicitly Huffman and decode bit-exactly through the same path.
  const EntropyCodec* codec = GetCodec(CodecId::kHuffman);
  if (magic == kMagicV2) {
    EF_ASSIGN_OR_RETURN(uint8_t codec_byte, reader.GetU8());
    EF_ASSIGN_OR_RETURN(codec, CodecFromByte(codec_byte));
  } else if (magic != kMagic) {
    return Status::Corruption("mgard: bad magic");
  }
  EF_ASSIGN_OR_RETURN(auto shape, reader.GetShape());
  EF_RETURN_IF_ERROR(ValidateBlobShape(shape, blob.size()));
  EF_ASSIGN_OR_RETURN(double delta, reader.GetF64());
  EF_ASSIGN_OR_RETURN(uint32_t levels, reader.GetU32());
  EF_ASSIGN_OR_RETURN(uint64_t n_escapes, reader.GetU64());
  const int64_t n = tensor::NumElements(shape);
  if (n <= 0) return Status::Corruption("mgard: empty shape");
  if (levels > kMaxLevels) return Status::Corruption("mgard: bad levels");
  if (n_escapes > static_cast<uint64_t>(n)) {
    return Status::Corruption("mgard: escape count exceeds elements");
  }
  uint64_t escape_bytes = 0;
  if (!util::CheckedMul(n_escapes, sizeof(double), &escape_bytes) ||
      reader.remaining() < escape_bytes) {
    return Status::Corruption("mgard: blob truncated");
  }
  std::vector<double> escapes(static_cast<size_t>(n_escapes));
  for (auto& e : escapes) {
    EF_ASSIGN_OR_RETURN(e, reader.GetF64());
  }
  EF_ASSIGN_OR_RETURN(uint64_t n_patches, reader.GetU64());
  if (n_patches > static_cast<uint64_t>(n)) {
    return Status::Corruption("mgard: patch count exceeds elements");
  }
  std::vector<std::pair<int64_t, float>> patches;
  {
    int64_t prev = -1;
    for (uint64_t k = 0; k < n_patches; ++k) {
      EF_ASSIGN_OR_RETURN(uint64_t delta_idx, reader.GetVarint64());
      EF_ASSIGN_OR_RETURN(float value, reader.GetF32());
      const int64_t idx = prev + 1 + static_cast<int64_t>(delta_idx);
      if (idx < 0 || idx >= n) {
        return Status::Corruption("mgard: patch index out of range");
      }
      patches.push_back({idx, value});
      prev = idx;
    }
  }

  // Rebuild the hierarchy geometry from the shape.
  int64_t slices, rows, cols;
  CollapseTo3d(shape, &slices, &rows, &cols);
  const int64_t grid_rows = slices * rows;
  const auto geometry = LevelGeometry(grid_rows, cols);
  if (geometry.size() != levels) {
    return Status::Corruption("mgard: level count mismatch");
  }
  Hierarchy h;
  for (const auto& [r, c] : geometry) {
    Level level;
    level.rows = r;
    level.cols = c;
    level.col_details.resize(static_cast<size_t>(r * (c / 2)));
    level.row_details.resize(static_cast<size_t>((r / 2) * ((c + 1) / 2)));
    h.levels.push_back(std::move(level));
  }
  if (h.levels.empty()) {
    h.coarse_rows = grid_rows;
    h.coarse_cols = cols;
  } else {
    h.coarse_rows = (h.levels.back().rows + 1) / 2;
    h.coarse_cols = (h.levels.back().cols + 1) / 2;
  }
  h.coarse.resize(static_cast<size_t>(h.coarse_rows * h.coarse_cols));
  if (CoefficientCount(h) != n) {
    return Status::Corruption("mgard: coefficient count mismatch");
  }

  EF_ASSIGN_OR_RETURN(auto rest, reader.Rest());
  util::BitReader bits(rest.first, rest.second);
  EF_ASSIGN_OR_RETURN(auto symbols,
                      codec->Decode(&bits, static_cast<uint64_t>(n)));
  RecordCodecDecode(*codec, static_cast<uint64_t>(n));

  size_t sym_pos = 0, esc_pos = 0;
  auto fill_vec = [&](std::vector<double>* vec) -> Status {
    for (double& v : *vec) {
      const uint32_t sym = symbols[sym_pos++];
      if (sym == kEscapeSymbol) {
        if (esc_pos >= n_escapes) {
          return Status::Corruption("mgard: escapes exhausted");
        }
        v = escapes[esc_pos++];
      } else {
        v = static_cast<double>(ZigzagDecode(sym)) * 2.0 * delta;
      }
    }
    return Status::OK();
  };
  for (Level& level : h.levels) {
    EF_RETURN_IF_ERROR(fill_vec(&level.col_details));
    EF_RETURN_IF_ERROR(fill_vec(&level.row_details));
  }
  EF_RETURN_IF_ERROR(fill_vec(&h.coarse));

  const std::vector<double> recon = Synthesize(h);
  Tensor out(shape);
  for (int64_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(recon[static_cast<size_t>(i)]);
  }
  for (const auto& [idx, value] : patches) out[idx] = value;

  Decompressed result;
  result.data = std::move(out);
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace compress
}  // namespace errorflow
