#ifndef ERRORFLOW_UTIL_BYTES_H_
#define ERRORFLOW_UTIL_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/result.h"

namespace errorflow {
namespace util {

/// \name Checked arithmetic for untrusted length fields.
///
/// Every decoder that reads a count or byte length from an untrusted blob
/// must combine such values with these helpers (never raw `+`/`*`): a
/// wrapped intermediate is exactly how a "bounds-checked" decoder ends up
/// handing a near-UINT64_MAX length to memcpy. Both return false on
/// overflow and leave `*out` unspecified.
/// @{
inline bool CheckedAdd(uint64_t a, uint64_t b, uint64_t* out) {
  return !__builtin_add_overflow(a, b, out);
}
inline bool CheckedMul(uint64_t a, uint64_t b, uint64_t* out) {
  return !__builtin_mul_overflow(a, b, out);
}
/// @}

/// \brief Caps applied wherever an untrusted length reaches an allocation.
///
/// The decode contract (docs/ROBUSTNESS.md): a length field read from a
/// blob may only authorize an allocation that (a) the remaining payload
/// could plausibly justify and (b) stays under these absolute limits.
/// Decoders take the limits as a parameter defaulting to `Default()` so
/// deployments with larger fields can widen them deliberately.
struct DecodeLimits {
  /// Largest single allocation any decoder may perform on behalf of an
  /// untrusted length field.
  uint64_t max_alloc_bytes = 256ull << 20;
  /// Largest element count an untrusted shape may describe.
  uint64_t max_elements = 1ull << 31;

  static const DecodeLimits& Default() {
    static const DecodeLimits kDefault;
    return kDefault;
  }

  Status CheckAlloc(uint64_t bytes, const char* what) const {
    if (bytes > max_alloc_bytes) {
      return Status::Corruption(std::string(what) +
                                ": allocation exceeds decode limit");
    }
    return Status::OK();
  }

  Status CheckElements(uint64_t count, const char* what) const {
    if (count > max_elements) {
      return Status::Corruption(std::string(what) +
                                ": element count exceeds decode limit");
    }
    return Status::OK();
  }
};

/// \brief Append-only little-endian byte buffer used for blob headers and
/// model serialization.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { Raw(&v, 1); }
  void PutU32(uint32_t v) { Raw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { Raw(&v, sizeof(v)); }
  void PutI64(int64_t v) { Raw(&v, sizeof(v)); }
  void PutF32(float v) { Raw(&v, sizeof(v)); }
  void PutF64(double v) { Raw(&v, sizeof(v)); }
  void PutBytes(const std::string& s) {
    PutU64(s.size());
    buf_.append(s);
  }
  /// LEB128 variable-length unsigned integer.
  void PutVarint64(uint64_t v) {
    while (v >= 0x80) {
      PutU8(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    PutU8(static_cast<uint8_t>(v));
  }
  void PutShape(const std::vector<int64_t>& shape) {
    PutU32(static_cast<uint32_t>(shape.size()));
    for (int64_t d : shape) PutI64(d);
  }
  void Raw(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  const std::string& buffer() const { return buf_; }
  std::string Finish() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// \brief Bounds-checked reader over a byte buffer; every accessor returns
/// Corruption on truncation.
class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : data_(static_cast<const char*>(data)), size_(size) {}
  explicit ByteReader(const std::string& s) : ByteReader(s.data(), s.size()) {}

  Result<uint8_t> GetU8() { return Get<uint8_t>(); }
  Result<uint32_t> GetU32() { return Get<uint32_t>(); }
  Result<uint64_t> GetU64() { return Get<uint64_t>(); }
  Result<int64_t> GetI64() { return Get<int64_t>(); }
  Result<float> GetF32() { return Get<float>(); }
  Result<double> GetF64() { return Get<double>(); }

  Result<std::string> GetBytes() {
    // No upper bound beyond the payload itself: `n > remaining()` (never
    // `pos_ + n > size_`, which wraps for n near UINT64_MAX) already caps
    // the copy by the buffer size.
    return GetBytesBounded(remaining());
  }

  /// Length-prefixed bytes whose length must not exceed `max_len`. The
  /// comparison is wrap-proof: the untrusted length is checked against the
  /// remaining payload and the cap before any arithmetic involving `pos_`.
  Result<std::string> GetBytesBounded(uint64_t max_len) {
    EF_ASSIGN_OR_RETURN(uint64_t n, GetU64());
    if (n > remaining()) return Status::Corruption("buffer truncated");
    if (n > max_len) return Status::Corruption("length field exceeds bound");
    std::string out(data_ + pos_, static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return out;
  }

  Result<uint64_t> GetVarint64() {
    uint64_t v = 0;
    int shift = 0;
    for (;;) {
      EF_ASSIGN_OR_RETURN(uint8_t byte, GetU8());
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
      if (shift >= 64) return Status::Corruption("varint too long");
    }
    return v;
  }

  Result<std::vector<int64_t>> GetShape() {
    EF_ASSIGN_OR_RETURN(uint32_t rank, GetU32());
    if (rank > 8) return Status::Corruption("bad shape rank");
    std::vector<int64_t> shape;
    for (uint32_t i = 0; i < rank; ++i) {
      EF_ASSIGN_OR_RETURN(int64_t d, GetI64());
      if (d < 0) return Status::Corruption("negative dimension");
      shape.push_back(d);
    }
    return shape;
  }

  /// Copies the next `n` bytes into `dst` (which may be null when n == 0).
  Status GetRaw(void* dst, size_t n) {
    if (n > remaining()) return Status::Corruption("buffer truncated");
    if (n > 0) std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  /// Remaining unread bytes (pointer + size), consuming them.
  Result<std::pair<const char*, size_t>> Rest() {
    std::pair<const char*, size_t> out{data_ + pos_, size_ - pos_};
    pos_ = size_;
    return out;
  }

  size_t position() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  template <typename T>
  Result<T> Get() {
    if (sizeof(T) > remaining()) {
      return Status::Corruption("buffer truncated");
    }
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace util
}  // namespace errorflow

#endif  // ERRORFLOW_UTIL_BYTES_H_
