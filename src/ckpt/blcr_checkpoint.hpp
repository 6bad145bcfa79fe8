// BLCR-style full-image checkpoint to a storage device (Table 3 baselines
// BLCR+HDD and BLCR+SSD).
//
// Every commit writes [A|A2] into the storage::Vault — the simulation's
// durable disk — as a DiskImages generation, and charges the vault
// device's transfer time to the rank's virtual clock. Two generations are
// retained so a failure during a write always leaves a complete previous
// image; the per-rank manifest names them, so a relaunch finds the newest
// after any number of commits, and restore() agrees on the newest one
// every rank holds — falling back one generation where a rank lost its
// newest.
#pragma once

#include <atomic>
#include <optional>
#include <vector>

#include "ckpt/disk_images.hpp"
#include "ckpt/factory.hpp"
#include "ckpt/protocol.hpp"

namespace skt::ckpt {

class BlcrCheckpoint final : public CheckpointProtocol {
 public:
  /// Uses key_prefix, data_bytes, user_bytes, vault (required; its device,
  /// e.g. hdd_profile(ranks_per_node), prices the images) and
  /// async_staging (a heap staging buffer; the vault keeps a complete
  /// previous image either way, so recovery is unchanged).
  explicit BlcrCheckpoint(FactoryParams params);

  bool open(CommCtx ctx) override;
  [[nodiscard]] std::span<std::byte> data() override;
  [[nodiscard]] std::span<std::byte> user_state() override;
  CommitStats commit(CommCtx ctx) override;
  RestoreStats restore(CommCtx ctx) override;
  double stage() override;
  CommitStats commit_staged(CommCtx ctx) override;
  [[nodiscard]] std::size_t memory_bytes() const override;
  [[nodiscard]] Strategy strategy() const override { return Strategy::kBlcr; }
  [[nodiscard]] std::uint64_t committed_epoch() const override;
  [[nodiscard]] DirtyTracker* dirty_tracker() override { return &tracker_; }

 private:
  /// No codec dictates a stripe size here, so the tracker's stripes are
  /// single blocks.
  static constexpr std::size_t kStripeBytes = enc::kBlockBytes;

  void require_open() const;
  CommitStats commit_impl(CommCtx ctx, bool async);

  FactoryParams params_;
  std::vector<std::byte> image_;  // [A|A2], the working buffers
  std::vector<std::byte> stage_;  // [A|A2] snapshot, async_staging only
  /// Blocks dirtied since the last stage()/sync commit. The vault write
  /// is a full image either way (the strategy's defining cost), but the
  /// stage() copy is dirty-runs-only and commits report dirty stats.
  DirtyTracker tracker_;
  /// The runs the last stage() copied, for the staged commit's stats.
  std::vector<enc::BlockRun> staged_runs_;
  /// This rank's generations; set by open().
  std::optional<DiskImages> images_;
  /// Newest image this rank has written/read. Atomic: the async worker
  /// publishes it while the rank thread may poll committed_epoch().
  std::atomic<std::uint64_t> epoch_ = 0;
};

}  // namespace skt::ckpt
