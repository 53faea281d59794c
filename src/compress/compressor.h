#ifndef ERRORFLOW_COMPRESS_COMPRESSOR_H_
#define ERRORFLOW_COMPRESS_COMPRESSOR_H_

#include <memory>
#include <string>

#include "compress/codec/codec.h"
#include "tensor/norms.h"
#include "tensor/tensor.h"
#include "util/result.h"

namespace errorflow {
namespace compress {

using tensor::Norm;
using tensor::Tensor;

/// \brief Error-bound request handed to a compressor.
///
/// `relative` tolerances are resolved against the data at compression time:
/// an L-infinity relative tolerance is scaled by the value range
/// (max - min), the SZ convention; an L2 relative tolerance is scaled by
/// the L2 norm of the input.
struct ErrorBound {
  Norm norm = Norm::kLinf;
  bool relative = true;
  double tolerance = 1e-3;

  static ErrorBound AbsLinf(double tol) {
    return {Norm::kLinf, false, tol};
  }
  static ErrorBound RelLinf(double tol) { return {Norm::kLinf, true, tol}; }
  static ErrorBound AbsL2(double tol) { return {Norm::kL2, false, tol}; }
  static ErrorBound RelL2(double tol) { return {Norm::kL2, true, tol}; }
};

/// \brief Outcome of a compression call.
struct Compressed {
  /// Self-describing blob (header + payload); feed to Decompress.
  std::string blob;
  /// Input payload size in bytes (float32 count * 4).
  int64_t original_bytes = 0;
  /// Wall-clock seconds spent compressing.
  double seconds = 0.0;
  /// The absolute per-element (Linf) or total (L2) error bound actually
  /// enforced, after resolving relative tolerances.
  double resolved_abs_tolerance = 0.0;

  double ratio() const {
    return blob.empty() ? 0.0
                        : static_cast<double>(original_bytes) /
                              static_cast<double>(blob.size());
  }
};

/// \brief Outcome of a decompression call.
struct Decompressed {
  Tensor data;
  /// Wall-clock seconds spent decompressing (the paper's Fig. 7/8 cost).
  double seconds = 0.0;
};

/// \brief Error-bounded lossy compressor interface.
///
/// Implementations guarantee: for every element i of the reconstruction r
/// of input x, |r_i - x_i| <= eb under an Linf bound, and ||r - x||_2 <= eb
/// under an L2 bound. All three backends are deterministic.
class Compressor {
 public:
  virtual ~Compressor() = default;

  /// Canonical lowercase name: "sz", "zfp", "mgard".
  virtual std::string name() const = 0;

  /// Whether the backend accepts tolerances in the given norm. ZFP does not
  /// support L2 tolerances (Fig. 8 note in the paper).
  virtual bool SupportsNorm(Norm norm) const = 0;

  /// Compresses `data` subject to `bound`. Tensors of rank 1-3 use
  /// dimension-aware prediction/transforms; higher ranks are treated as
  /// their trailing dimensions.
  virtual Result<Compressed> Compress(const Tensor& data,
                                      const ErrorBound& bound) = 0;

  /// Reconstructs a tensor from a blob produced by this backend.
  virtual Result<Decompressed> Decompress(const std::string& blob) = 0;
};

/// \brief Available compression backends.
enum class Backend {
  kSz,
  kZfp,
  kMgard,
};

const char* BackendToString(Backend backend);

/// Factory for the built-in backends. SZ and MGARD write every new stream
/// with Huffman as the entropy stage, and decode streams of either codec
/// (the blob carries a codec byte).
std::unique_ptr<Compressor> MakeCompressor(Backend backend);

/// The same factory for callers that still pass `kDefaultCodec`:
/// perfbench/pipelines.cc does. `codec` must be `CodecId::kHuffman`.
std::unique_ptr<Compressor> MakeCompressor(Backend backend, CodecId codec);

/// All built-in backends, in the paper's plotting order.
const std::vector<Backend>& AllBackends();

}  // namespace compress
}  // namespace errorflow

#endif  // ERRORFLOW_COMPRESS_COMPRESSOR_H_
