// Storage device models for the disk-based checkpoint baselines of
// Table 3 (BLCR+HDD, BLCR+SSD) and for level 2's disk flush.
//
// Devices do not store bytes themselves (storage::Vault does, and carries
// one Device); they model the *time* a transfer costs, which is charged to
// the job's virtual clock so benches finish in milliseconds while
// reporting paper-scale runtimes.
#pragma once

#include <cstddef>
#include <string>

namespace skt::storage {

struct DeviceProfile {
  std::string name = "null";
  double write_bandwidth_Bps = 0.0;  ///< sustained sequential write
  double read_bandwidth_Bps = 0.0;
  double latency_s = 0.0;            ///< per-operation setup cost
  /// Ranks on one node share the device; effective bandwidth divides by
  /// the number of concurrent writers.
  int sharers = 1;
};

/// Commodity 7.2k HDD — calibrated so a 4 GB per-process image across a
/// shared node disk costs ~the 295 s the paper measured for BLCR+HDD.
DeviceProfile hdd_profile(int sharers = 1);

/// SATA SSD — ~112 s for the same image (BLCR+SSD row).
DeviceProfile ssd_profile(int sharers = 1);

/// Node-local RAM filesystem (SCR's fastest level).
DeviceProfile ramfs_profile(int sharers = 1);

/// Parallel file system: high aggregate but heavily shared.
DeviceProfile pfs_profile(int sharers = 1);

class Device {
 public:
  explicit Device(DeviceProfile profile) : profile_(std::move(profile)) {}

  [[nodiscard]] const DeviceProfile& profile() const { return profile_; }

  /// Virtual seconds to write/read `bytes` given the profile's sharing.
  [[nodiscard]] double write_seconds(std::size_t bytes) const;
  [[nodiscard]] double read_seconds(std::size_t bytes) const;

 private:
  DeviceProfile profile_;
};

}  // namespace skt::storage
