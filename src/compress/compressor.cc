#include "compress/compressor.h"

#include "compress/mgard.h"
#include "compress/sz.h"
#include "compress/zfp.h"
#include "util/macros.h"

namespace errorflow {
namespace compress {

const char* BackendToString(Backend backend) {
  switch (backend) {
    case Backend::kSz:
      return "sz";
    case Backend::kZfp:
      return "zfp";
    case Backend::kMgard:
      return "mgard";
  }
  return "unknown";
}

std::unique_ptr<Compressor> MakeCompressor(Backend backend) {
  switch (backend) {
    case Backend::kSz:
      return std::make_unique<SzCompressor>();
    case Backend::kZfp:
      return std::make_unique<ZfpCompressor>();
    case Backend::kMgard:
      return std::make_unique<MgardCompressor>();
  }
  EF_CHECK(false);
  return nullptr;
}

std::unique_ptr<Compressor> MakeCompressor(Backend backend, CodecId codec) {
  EF_CHECK(codec == CodecId::kHuffman);
  return MakeCompressor(backend);
}

const std::vector<Backend>& AllBackends() {
  static const std::vector<Backend> kBackends = {Backend::kZfp, Backend::kSz,
                                                 Backend::kMgard};
  return kBackends;
}

}  // namespace compress
}  // namespace errorflow
