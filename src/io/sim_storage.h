#ifndef ERRORFLOW_IO_SIM_STORAGE_H_
#define ERRORFLOW_IO_SIM_STORAGE_H_

#include <string>
#include <unordered_map>

#include "util/result.h"

namespace errorflow {
namespace io {

/// \brief Bandwidth model of an HPC storage tier.
///
/// The paper's I/O experiments ran against a Lustre filesystem with a
/// baseline uncompressed read throughput of 2.8 GB/s (Fig. 7). Real disks
/// are not part of this reproduction, so reads/writes are held in memory
/// and the *transfer time* is modeled as latency + bytes/bandwidth;
/// decompression time on top of that is measured for real.
struct StorageConfig {
  double read_bandwidth_bytes_per_sec = 2.8e9;
  double write_bandwidth_bytes_per_sec = 2.0e9;
  /// Fixed per-operation latency (metadata + seek).
  double latency_seconds = 1e-5;
  /// Modeled parallelism of the decompression stage. The paper's HPC nodes
  /// decompress on every core of a Summit/Frontier node (and production
  /// SZ/ZFP ship OpenMP/GPU decoders); our compressors are measured
  /// single-threaded. Pipelines divide the measured decompression time by
  /// this factor — relative backend speeds (ZFP fastest, MGARD slowest)
  /// stay as measured. See DESIGN.md substitutions.
  double decompress_parallelism = 64.0;
};

/// \brief Result of a simulated read: the payload plus the modeled seconds
/// the transfer would have taken on the configured tier.
struct ReadResult {
  std::string data;
  double simulated_seconds = 0.0;
};

/// \brief In-memory object store with a simulated transfer-time model.
class SimulatedStorage {
 public:
  explicit SimulatedStorage(StorageConfig config = StorageConfig())
      : config_(config) {}

  /// Stores `bytes` under `key`, overwriting; returns the modeled write
  /// seconds through `seconds` if non-null.
  Status Write(const std::string& key, std::string bytes,
               double* seconds = nullptr);

  /// Fetches the object and the modeled transfer time.
  Result<ReadResult> Read(const std::string& key) const;

  /// Modeled seconds to transfer `bytes` at the configured read bandwidth.
  double ModelReadSeconds(int64_t bytes) const;

  bool Contains(const std::string& key) const {
    return objects_.count(key) != 0;
  }
  const StorageConfig& config() const { return config_; }

 private:
  StorageConfig config_;
  std::unordered_map<std::string, std::string> objects_;
};

}  // namespace io
}  // namespace errorflow

#endif  // ERRORFLOW_IO_SIM_STORAGE_H_
