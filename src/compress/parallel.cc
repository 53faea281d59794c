#include "compress/parallel.h"

#include <cmath>
#include <cstring>

#include "compress/bound_util.h"
#include "tensor/norms.h"
#include "util/bytes.h"
#include "util/timer.h"

namespace errorflow {
namespace compress {

namespace {
constexpr uint32_t kMagic = 0x45504152;  // "EPAR"
}  // namespace

ParallelCompressor::ParallelCompressor(Backend backend,
                                       util::ThreadPool* pool,
                                       int64_t min_chunk_rows)
    : backend_(backend), pool_(pool), min_chunk_rows_(min_chunk_rows) {
  EF_CHECK(pool != nullptr && min_chunk_rows >= 1);
}

std::string ParallelCompressor::name() const {
  return std::string(BackendToString(backend_)) + "-parallel";
}

bool ParallelCompressor::SupportsNorm(Norm norm) const {
  return MakeCompressor(backend_)->SupportsNorm(norm);
}

Result<Compressed> ParallelCompressor::Compress(const Tensor& data,
                                                const ErrorBound& bound) {
  if (data.size() == 0 || data.ndim() < 1) {
    return Status::InvalidArgument("parallel: non-empty tensor required");
  }
  if (!SupportsNorm(bound.norm)) {
    return Status::NotImplemented("parallel: inner backend lacks norm");
  }
  util::Stopwatch timer;
  // Resolve the bound against the full tensor (the wrapper must honour the
  // same contract as the inner compressor on the whole input). Linf: per
  // element; L2: the total budget.
  EF_ASSIGN_OR_RETURN(const double abs_tol, ResolveAbsoluteBound(data, bound));
  const int64_t rows = data.dim(0);
  const int64_t per_row = data.size() / rows;
  const int64_t n = data.size();

  // Chunk grid: ~2 chunks per worker, at least min_chunk_rows rows each.
  int64_t num_chunks =
      std::min<int64_t>(2 * pool_->num_threads(),
                        std::max<int64_t>(1, rows / min_chunk_rows_));
  num_chunks = std::max<int64_t>(1, num_chunks);
  const int64_t rows_per_chunk = (rows + num_chunks - 1) / num_chunks;
  num_chunks = (rows + rows_per_chunk - 1) / rows_per_chunk;

  std::vector<std::string> blobs(static_cast<size_t>(num_chunks));
  std::vector<int64_t> chunk_rows(static_cast<size_t>(num_chunks));
  std::vector<Status> statuses(static_cast<size_t>(num_chunks));

  pool_->ParallelFor(num_chunks, [&](int64_t c) {
    const int64_t r0 = c * rows_per_chunk;
    const int64_t r1 = std::min(rows, r0 + rows_per_chunk);
    chunk_rows[static_cast<size_t>(c)] = r1 - r0;
    tensor::Shape chunk_shape = data.shape();
    chunk_shape[0] = r1 - r0;
    Tensor chunk(chunk_shape);
    std::memcpy(chunk.data(), data.data() + r0 * per_row,
                static_cast<size_t>(chunk.size()) * sizeof(float));

    ErrorBound chunk_bound;
    chunk_bound.relative = false;
    chunk_bound.norm = bound.norm;
    if (bound.norm == Norm::kLinf) {
      chunk_bound.tolerance = abs_tol;
    } else {
      chunk_bound.tolerance =
          abs_tol * std::sqrt(static_cast<double>(chunk.size()) /
                               static_cast<double>(n));
    }
    auto inner = MakeCompressor(backend_);
    auto result = inner->Compress(chunk, chunk_bound);
    if (!result.ok()) {
      statuses[static_cast<size_t>(c)] = result.status();
      return;
    }
    blobs[static_cast<size_t>(c)] = std::move(result->blob);
  });
  for (const Status& st : statuses) {
    EF_RETURN_IF_ERROR(st);
  }

  util::ByteWriter header;
  header.PutU32(kMagic);
  header.PutU8(static_cast<uint8_t>(backend_));
  header.PutShape(data.shape());
  header.PutU64(static_cast<uint64_t>(num_chunks));
  for (int64_t c = 0; c < num_chunks; ++c) {
    header.PutU64(static_cast<uint64_t>(chunk_rows[static_cast<size_t>(c)]));
    header.PutU64(blobs[static_cast<size_t>(c)].size());
  }
  std::string blob = header.Finish();
  for (const std::string& b : blobs) blob += b;

  Compressed out;
  out.blob = std::move(blob);
  out.original_bytes = n * static_cast<int64_t>(sizeof(float));
  out.resolved_abs_tolerance = abs_tol;
  out.seconds = timer.ElapsedSeconds();
  return out;
}

Result<Decompressed> ParallelCompressor::Decompress(const std::string& blob) {
  util::Stopwatch timer;
  util::ByteReader reader(blob);
  EF_ASSIGN_OR_RETURN(uint32_t magic, reader.GetU32());
  if (magic != kMagic) return Status::Corruption("parallel: bad magic");
  EF_ASSIGN_OR_RETURN(uint8_t backend_byte, reader.GetU8());
  if (backend_byte != static_cast<uint8_t>(backend_)) {
    return Status::Corruption("parallel: backend mismatch");
  }
  EF_ASSIGN_OR_RETURN(auto shape, reader.GetShape());
  EF_RETURN_IF_ERROR(ValidateBlobShape(shape, blob.size()));
  // Chunks split the leading dimension, so a rank-0 shape has no rows.
  if (shape.empty()) return Status::Corruption("parallel: rank-0 shape");
  EF_ASSIGN_OR_RETURN(uint64_t num_chunks, reader.GetU64());
  const int64_t n = tensor::NumElements(shape);
  const int64_t rows = shape[0];
  const int64_t per_row = rows > 0 ? n / rows : 0;
  if (rows <= 0 || num_chunks == 0 ||
      num_chunks > static_cast<uint64_t>(rows)) {
    return Status::Corruption("parallel: bad chunk count");
  }
  // Each chunk contributes a 16-byte (rows, bytes) header to the payload;
  // a count the remaining bytes cannot cover would otherwise size the
  // metadata vector below straight from the untrusted field.
  if (num_chunks > reader.remaining() / 16) {
    return Status::Corruption("parallel: chunk table larger than payload");
  }

  struct ChunkMeta {
    int64_t rows = 0;
    size_t bytes = 0;
    size_t offset = 0;
  };
  std::vector<ChunkMeta> chunks(static_cast<size_t>(num_chunks));
  int64_t total_rows = 0;
  for (auto& c : chunks) {
    EF_ASSIGN_OR_RETURN(uint64_t r, reader.GetU64());
    EF_ASSIGN_OR_RETURN(uint64_t bytes, reader.GetU64());
    if (r == 0 || r > static_cast<uint64_t>(rows) ||
        bytes > blob.size()) {
      return Status::Corruption("parallel: bad chunk meta");
    }
    c.rows = static_cast<int64_t>(r);
    c.bytes = static_cast<size_t>(bytes);
    total_rows += c.rows;
  }
  if (total_rows != rows) {
    return Status::Corruption("parallel: chunk rows mismatch");
  }
  EF_ASSIGN_OR_RETURN(auto rest, reader.Rest());
  size_t offset = 0;
  for (auto& c : chunks) {
    if (c.bytes > rest.second - offset) {
      return Status::Corruption("parallel: payload truncated");
    }
    c.offset = offset;
    offset += c.bytes;
  }

  Tensor out(shape);
  std::vector<Status> statuses(chunks.size());
  std::vector<int64_t> row_starts(chunks.size());
  {
    int64_t r = 0;
    for (size_t i = 0; i < chunks.size(); ++i) {
      row_starts[i] = r;
      r += chunks[i].rows;
    }
  }
  pool_->ParallelFor(static_cast<int64_t>(chunks.size()), [&](int64_t i) {
    const ChunkMeta& c = chunks[static_cast<size_t>(i)];
    auto inner = MakeCompressor(backend_);
    auto result = inner->Decompress(
        std::string(rest.first + c.offset, c.bytes));
    if (!result.ok()) {
      statuses[static_cast<size_t>(i)] = result.status();
      return;
    }
    if (result->data.size() != c.rows * per_row) {
      statuses[static_cast<size_t>(i)] =
          Status::Corruption("parallel: chunk size mismatch");
      return;
    }
    std::memcpy(out.data() + row_starts[static_cast<size_t>(i)] * per_row,
                result->data.data(),
                static_cast<size_t>(result->data.size()) * sizeof(float));
  });
  for (const Status& st : statuses) {
    EF_RETURN_IF_ERROR(st);
  }

  Decompressed result;
  result.data = std::move(out);
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace compress
}  // namespace errorflow
