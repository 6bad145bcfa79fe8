// storage::Vault — the durable tier: a key→blob store whose contents
// survive node loss (the simulation's "disk"), spread across N shards that
// share one storage::Device model.
//
// Blobs are split into fixed-size EXTENTS; extent e of a blob goes to the
// PlacementMap slot (anchor + e) % N with a replica on the successor slot
// (anchor + e + 1) % N, so:
//
//   * one large flush engages every shard concurrently — aggregate flush
//     bandwidth scales with the shard count;
//   * a single shard loss never loses durable data — every extent has a
//     second copy on a different shard (replica invariant, N >= 2).
//
// The default configuration is one shard on an off-cluster node
// (kOffClusterNode) with ssd_profile(): a single mount point that no node
// loss takes down, as the disks of the paper's BLCR rows. A sharded
// vault's nodes are the job's own, so a node loss takes its shard along.
//
// replace_node(dead, replacement) is the reshard protocol the launcher
// drives when it swaps a dead node for a spare: the dead shard's contents
// are gone (they lived on that node), the replacement takes the dead
// node's placement SLOT (striping arithmetic stays stable for every
// surviving extent), and each extent the new layout requires on a shard
// that lacks it is re-homed from a surviving replica.
//
// Writes are transactional per key — a reader never sees a torn blob.
//
// Virtual-time model: write_seconds()/read_seconds() report the modeled
// cost of a transfer with the extents in flight on all shards at once —
// primary copies move ⌈bytes/N⌉ through each shard's device while replica
// propagation proceeds shard-to-shard off the synchronous path (the
// caller's clock only waits for the primary copies, as in asynchronous
// replication). For one shard that is Device::write_seconds(bytes).
//
// Telemetry: every vault publishes vault.* gauges into the process-wide
// metrics registry, so with several vaults in one process the last one
// written wins.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "storage/device.hpp"
#include "storage/placement.hpp"

namespace skt::storage {

/// Node id of the default single shard: no cluster node has it, so no
/// node loss wipes it and the launcher's reshard hook leaves it alone.
inline constexpr int kOffClusterNode = -1;

struct VaultConfig {
  /// Node ids hosting one shard each (non-empty, duplicate-free). Set a
  /// multi-shard list by assignment: appending to the default keeps the
  /// off-cluster shard.
  std::vector<int> nodes = {kOffClusterNode};
  /// Device model of every shard (bandwidth, latency, sharers). Write and
  /// read bandwidth must be positive.
  DeviceProfile device = ssd_profile();
  /// Blobs are split into extents of this size; the tail extent is short.
  std::size_t extent_bytes = 256 * 1024;
  /// Write each extent to primary + successor shard. Ignored (no distinct
  /// replica exists) when only one shard is configured.
  bool replicate = true;
};

/// Monotonic operation counters, readable at any time (e.g. RunReports).
struct VaultStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  /// get() served an extent from the successor (or a scan) because the
  /// primary shard lacked it — the degraded-read path after a shard loss.
  std::uint64_t degraded_reads = 0;
  /// replace_node() invocations (placement map changes).
  std::uint64_t rebalances = 0;
  /// Extents copied onto a shard from a surviving replica during reshard.
  std::uint64_t extents_rehomed = 0;
  /// Extents for which no surviving copy existed during reshard — the
  /// owning blob is unrecoverable. Stays 0 while the replica invariant
  /// holds and at most one shard is lost between reshards.
  std::uint64_t extents_lost = 0;
};

class Vault {
 public:
  /// Throws std::invalid_argument on an empty or duplicated node list, a
  /// zero extent size, or a device without write or read bandwidth.
  explicit Vault(VaultConfig config = {});

  /// Atomically replace the blob stored under `key`.
  void put(const std::string& key, std::span<const std::byte> blob);

  /// Copy of the blob, or nullopt if the key is unknown or an extent lost
  /// every copy.
  [[nodiscard]] std::optional<std::vector<std::byte>> get(const std::string& key) const;

  /// True when get() would return the blob. Copies nothing.
  [[nodiscard]] bool exists(const std::string& key) const;

  void remove(const std::string& key);

  /// Logical bytes across all blobs (replication not counted).
  [[nodiscard]] std::size_t bytes_in_use() const;

  /// Modeled virtual seconds a write/read of `bytes` costs: ⌈bytes/N⌉
  /// through the vault's device.
  [[nodiscard]] double write_seconds(std::size_t bytes) const;
  [[nodiscard]] double read_seconds(std::size_t bytes) const;

  // ---- Sharding --------------------------------------------------------
  [[nodiscard]] std::size_t shard_count() const;
  [[nodiscard]] bool has_shard(int node) const;
  /// Physical bytes stored on `node`'s shard, replicas included.
  /// 0 when the node hosts no shard.
  [[nodiscard]] std::size_t shard_bytes(int node) const;
  /// Node ids currently holding slots, in slot order.
  [[nodiscard]] std::vector<int> shard_nodes() const;
  [[nodiscard]] std::uint64_t placement_version() const;

  /// Drop the contents of `node`'s shard without resharding — the moment a
  /// shard node is known dead, its bytes are gone. The launcher wipes ALL
  /// dead shards before the first replace_node of a recovery cycle so a
  /// correlated multi-node loss can never re-home an extent out of another
  /// dead (but not yet replaced) shard. No-op when `node` hosts no shard.
  void wipe_shard(int node);

  /// Reshard after the launcher swapped `dead` for `replacement`: drop the
  /// dead shard (its node's contents are gone), give the replacement the
  /// dead slot, and re-home every extent the new layout requires from
  /// surviving replicas. No-op when `dead` hosts no shard.
  void replace_node(int dead, int replacement);

  [[nodiscard]] VaultStats stats() const;

  /// The key under which extent `extent` of `key` is stored inside a
  /// shard — exposed so forensics/tests can identify extents.
  [[nodiscard]] static std::string extent_key(const std::string& key, std::size_t extent);

 private:
  using Bytes = std::vector<std::byte>;
  /// One shard's contents: extent key → bytes.
  using Shard = std::map<std::string, Bytes>;

  [[nodiscard]] std::size_t extent_count(std::size_t total_bytes) const;
  /// The stored copy of one extent: primary, else successor, else a stray
  /// copy on another shard (mid-reshard state); nullptr when every copy is
  /// lost. Sets `*degraded` when the primary missed. Copies nothing.
  [[nodiscard]] const Bytes* find_extent_locked(const std::string& key, std::size_t extent,
                                                bool* degraded) const;
  void remove_extents_locked(const std::string& key, std::size_t total_bytes);
  /// Publish vault.* gauges into the process metrics registry.
  void refresh_gauges_locked() const;

  const VaultConfig config_;
  const Device device_;
  mutable std::mutex mutex_;
  PlacementMap placement_;
  std::map<int, Shard> shards_;                 // by node id
  std::map<std::string, std::size_t> index_;    // logical blob → total bytes
  mutable VaultStats stats_;
};

}  // namespace skt::storage
