#ifndef ERRORFLOW_COMPRESS_SZ_H_
#define ERRORFLOW_COMPRESS_SZ_H_

#include <cstdint>
#include <vector>

#include "compress/compressor.h"

namespace errorflow {
namespace compress {

/// \brief SZ-style prediction-based error-bounded compressor.
///
/// Algorithmic skeleton of SZ (Di & Cappello et al.): a Lorenzo predictor
/// of order 1 over the reconstructed field (1-D/2-D/3-D, chosen from the
/// tensor rank), linear-scaling quantization of the prediction residual
/// with bin width 2*eb, an unpredictable-value escape path storing the raw
/// float, and Huffman coding of the quantization codes. Guarantees
/// |recon_i - x_i| <= eb for every element. New blobs are EZS2 with codec
/// byte 0 (Huffman); decoding follows the blob's codec byte, and reads the
/// legacy EZS1 layout as implicit Huffman.
///
/// Properties preserved from production SZ (per DESIGN.md): highest
/// compression ratios on smooth fields among the three backends, moderate
/// decompression speed (entropy decode + prediction chain), and support
/// for both Linf and L2 tolerances (L2 is enforced via eb = tol/sqrt(n)).
class SzCompressor : public Compressor {
 public:
  std::string name() const override { return "sz"; }
  bool SupportsNorm(Norm norm) const override {
    (void)norm;
    return true;
  }
  Result<Compressed> Compress(const Tensor& data,
                              const ErrorBound& bound) override;
  Result<Decompressed> Decompress(const std::string& blob) override;
};

/// Output of the SZ-like backend's predict+quantize stage.
struct LorenzoCodes {
  /// Zigzagged quantization codes of the predicted elements, in element
  /// order: the entropy stage's input.
  std::vector<uint32_t> codes;
  /// Elements stored raw (the escape path), ascending, and their values.
  std::vector<int64_t> escape_indices;
  std::vector<float> raw_values;
};

/// The predict+quantize stage of `SzCompressor::Compress` over a field
/// collapsed to `slices` x `rows` x `cols` (row-major): each element's
/// order-1 Lorenzo prediction from the reconstructed field, its residual
/// quantized into bins of width 2 * `eb`, or, where the code would exceed
/// 2^20 or the stored float would miss the bound, an escape. `eb` <= 0
/// escapes every element.
LorenzoCodes LorenzoQuantize(const float* data, int64_t slices,
                             int64_t rows, int64_t cols, double eb);

/// The reconstruct stage of `SzCompressor::Decompress`: writes the
/// `slices` x `rows` x `cols` field to `out`. `unpred[i]` != 0 marks
/// element i as escaped; escapes take, in order, the `n_raw` floats at
/// `raw` (unaligned), and every other element the next of `codes`.
/// Corruption when either runs out. UnpackLorenzoCodes, then
/// LorenzoChains.
Status LorenzoReconstruct(const std::vector<uint32_t>& codes,
                          const uint8_t* unpred, const char* raw,
                          uint64_t n_raw, int64_t slices, int64_t rows,
                          int64_t cols, double eb, float* out);

/// The reconstruct stage's first pass over the `n` elements: each one's
/// code, zigzag-decoded, or, if escaped, its raw float, as 32 bits in its
/// slot of `out`, in element order. Corruption where LorenzoReconstruct
/// reports it.
Status UnpackLorenzoCodes(const std::vector<uint32_t>& codes,
                          const uint8_t* unpred, const char* raw,
                          uint64_t n_raw, int64_t n, float* out);

/// The reconstruct stage's prediction chains: replaces the bits that
/// UnpackLorenzoCodes left in `out` with the reconstructed floats.
void LorenzoChains(const uint8_t* unpred, int64_t slices, int64_t rows,
                   int64_t cols, double eb, float* out);

}  // namespace compress
}  // namespace errorflow

#endif  // ERRORFLOW_COMPRESS_SZ_H_
