#ifndef ERRORFLOW_TESTS_TESTING_STORED_PAYLOADS_H_
#define ERRORFLOW_TESTS_TESTING_STORED_PAYLOADS_H_

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace errorflow {
namespace testing {

/// One stored stream: `count` is the number of symbols (codec payloads) or
/// floats (compressor blobs) it decodes to.
struct StoredPayload {
  uint64_t count = 0;
  std::string bytes;
};

/// Reads `file` from tests/compress/testdata (EF_COMPRESS_TESTDATA_DIR):
/// a sequence of records, each a little-endian u64 count, a little-endian
/// u64 byte length and that many bytes. A missing or truncated file reads
/// as no records, so callers assert the record count they expect.
inline std::vector<StoredPayload> ReadStoredPayloads(const std::string& file) {
  std::ifstream in(std::string(EF_COMPRESS_TESTDATA_DIR) + "/" + file,
                   std::ios::binary);
  const std::string data{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  size_t pos = 0;
  auto read_u64 = [&](uint64_t* v) {
    if (data.size() - pos < 8) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= uint64_t{static_cast<uint8_t>(data[pos + i])} << (8 * i);
    }
    pos += 8;
    return true;
  };
  std::vector<StoredPayload> records;
  while (pos < data.size()) {
    StoredPayload record;
    uint64_t size = 0;
    if (!read_u64(&record.count) || !read_u64(&size) ||
        data.size() - pos < size) {
      return {};
    }
    record.bytes = data.substr(pos, size);
    pos += size;
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace testing
}  // namespace errorflow

#endif  // ERRORFLOW_TESTS_TESTING_STORED_PAYLOADS_H_
