#ifndef ERRORFLOW_COMPRESS_MGARD_H_
#define ERRORFLOW_COMPRESS_MGARD_H_

#include "compress/compressor.h"

namespace errorflow {
namespace compress {

/// \brief MGARD-style multilevel error-bounded compressor.
///
/// Algorithmic skeleton of MGARD (Ainsworth et al.): a 2-D multilevel
/// decomposition where each level keeps the even-index grid nodes (in both
/// directions) as the coarse approximation and stores, for each remaining
/// node, its deviation from the bilinear interpolation of its coarse
/// neighbors (a multigrid prediction-correction hierarchy, applied as two
/// separable passes per level). Correction coefficients are uniformly
/// quantized and Huffman-coded. Rank-1 inputs degenerate naturally to the
/// 1-D hierarchy; rank >= 3 inputs are viewed as (slices*rows, cols).
///
/// Error control:
///  * Linf: with level-wise quantizer delta = tol / (2L+1), each of the
///    two interpolation passes per level has Linf gain <= 1, so the
///    synthesis error telescopes to <= tol; a compression-time verify pass
///    patches any float-rounding stragglers exactly, making the guarantee
///    unconditional.
///  * L2: MGARD's hallmark — supported natively. An initial estimate
///    delta = tol/sqrt(n) is refined by an internal verify-and-shrink loop
///    (the reconstruction is synthesized in-memory and the achieved L2
///    error measured) until the bound holds; the loop converges in a few
///    iterations and is the reason MGARD-style compression is slower at
///    tight tolerances, matching the paper's Fig. 7/8 throughput shape.
///
/// New blobs are EMG3 with codec byte 0 (Huffman); decoding follows the
/// blob's codec byte, and reads the legacy EMG2 layout as implicit Huffman.
class MgardCompressor : public Compressor {
 public:
  std::string name() const override { return "mgard"; }
  bool SupportsNorm(Norm norm) const override {
    (void)norm;
    return true;
  }
  Result<Compressed> Compress(const Tensor& data,
                              const ErrorBound& bound) override;
  Result<Decompressed> Decompress(const std::string& blob) override;
};

}  // namespace compress
}  // namespace errorflow

#endif  // ERRORFLOW_COMPRESS_MGARD_H_
