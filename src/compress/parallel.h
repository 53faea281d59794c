#ifndef ERRORFLOW_COMPRESS_PARALLEL_H_
#define ERRORFLOW_COMPRESS_PARALLEL_H_

#include <memory>

#include "compress/compressor.h"
#include "util/thread_pool.h"

namespace errorflow {
namespace compress {

/// \brief Chunk-parallel wrapper around any error-bounded compressor —
/// the node-level parallel decompression that production SZ/ZFP provide
/// via OpenMP, realized on the thread pool.
///
/// The input tensor is split along its leading dimension into roughly
/// 2x-threads chunks (never below `min_chunk_rows` rows), each chunk is
/// compressed *independently* by its own inner-compressor instance, and
/// the pieces are framed into a container blob. Decompression decodes all
/// chunks concurrently and reassembles.
///
/// Error-bound contract: relative tolerances are resolved against the
/// FULL tensor first (matching the unwrapped semantics), then each chunk
/// receives an absolute budget — the pointwise bound itself for Linf, and
/// a sqrt(chunk_elems / total_elems) share of the budget for L2 (so the
/// chunk errors compose to at most the requested total).
///
/// The cost of chunking is a slightly lower ratio (prediction contexts
/// reset at chunk boundaries).
class ParallelCompressor : public Compressor {
 public:
  /// `pool` must outlive this object. Each chunk is compressed by its own
  /// `MakeCompressor(backend)` instance. Each chunk blob is
  /// self-describing (it carries its own codec byte), so decoding handles
  /// containers whose chunks were written with any codec.
  ParallelCompressor(Backend backend, util::ThreadPool* pool,
                     int64_t min_chunk_rows = 64);

  std::string name() const override;
  bool SupportsNorm(Norm norm) const override;
  Result<Compressed> Compress(const Tensor& data,
                              const ErrorBound& bound) override;
  Result<Decompressed> Decompress(const std::string& blob) override;

 private:
  Backend backend_;
  util::ThreadPool* pool_;
  int64_t min_chunk_rows_;
};

}  // namespace compress
}  // namespace errorflow

#endif  // ERRORFLOW_COMPRESS_PARALLEL_H_
