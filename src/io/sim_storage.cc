#include "io/sim_storage.h"

namespace errorflow {
namespace io {

Status SimulatedStorage::Write(const std::string& key, std::string bytes,
                               double* seconds) {
  if (seconds != nullptr) {
    *seconds = config_.latency_seconds +
               static_cast<double>(bytes.size()) /
                   config_.write_bandwidth_bytes_per_sec;
  }
  objects_[key] = std::move(bytes);
  return Status::OK();
}

Result<ReadResult> SimulatedStorage::Read(const std::string& key) const {
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    return Status::NotFound("no such object: " + key);
  }
  ReadResult out;
  out.data = it->second;
  out.simulated_seconds = ModelReadSeconds(
      static_cast<int64_t>(it->second.size()));
  return out;
}

double SimulatedStorage::ModelReadSeconds(int64_t bytes) const {
  return config_.latency_seconds +
         static_cast<double>(bytes) / config_.read_bandwidth_bytes_per_sec;
}

}  // namespace io
}  // namespace errorflow
