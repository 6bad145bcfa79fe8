// Multi-level checkpointing (SCR / FTI style), the composition the paper
// points at in Sections 2.1 and 7: "in-memory checkpoint methods can be
// also combined with a multi-level checkpoint framework for a higher
// degree of fault tolerance".
//
// Level 1 is any in-memory CheckpointProtocol (self-checkpoint by
// default); level 2 periodically flushes the *committed* image to the
// storage::Vault, whose device prices the transfer. Restore first tries the
// fast in-memory path; when that is unrecoverable — e.g. two nodes of one
// encoding group lost at once — it falls back to the newest complete disk
// generation, trading recovery time for coverage.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "ckpt/factory.hpp"
#include "ckpt/protocol.hpp"

namespace skt::ckpt {

class MultiLevelCheckpoint final : public CheckpointProtocol {
 public:
  /// The level-1 strategy's FactoryParams (vault required for the disk
  /// level; async_staging makes the level-2 flush read the staged image
  /// instead of the live working buffer) plus the level-2 cadence.
  struct Params : FactoryParams {
    /// Level-1 strategy (must be an in-memory one).
    Strategy level1 = Strategy::kSelf;
    /// Flush to disk every `flush_every` level-1 commits (0 = never).
    int flush_every = 4;
  };

  explicit MultiLevelCheckpoint(Params params);

  bool open(CommCtx ctx) override;
  [[nodiscard]] std::span<std::byte> data() override;
  [[nodiscard]] std::span<std::byte> user_state() override;
  CommitStats commit(CommCtx ctx) override;
  RestoreStats restore(CommCtx ctx) override;
  [[nodiscard]] bool supports_async() const override { return inner_->supports_async(); }
  double stage() override { return inner_->stage(); }
  CommitStats commit_staged(CommCtx ctx) override;
  [[nodiscard]] std::span<const std::byte> staged() const override {
    return inner_->staged();
  }
  [[nodiscard]] std::size_t memory_bytes() const override;
  [[nodiscard]] Strategy strategy() const override { return inner_->strategy(); }
  [[nodiscard]] std::uint64_t committed_epoch() const override;
  [[nodiscard]] DirtyTracker* dirty_tracker() override { return inner_->dirty_tracker(); }

  /// Epoch of the newest complete disk generation (0 = none).
  [[nodiscard]] std::uint64_t disk_epoch() const {
    return disk_epoch_.load(std::memory_order_acquire);
  }
  /// Number of level-2 flushes performed by this instance.
  [[nodiscard]] int flushes() const { return flushes_.load(std::memory_order_acquire); }
  /// True when the last restore() had to fall back to the disk level.
  [[nodiscard]] bool last_restore_used_disk() const { return used_disk_; }

 private:
  /// Per-rank manifest: the two disk generations currently retained.
  /// Written after the image, so a torn flush leaves the manifest pointing
  /// at the previous complete generation.
  struct Manifest {
    std::uint64_t newest = 0;
    std::uint64_t previous = 0;
  };

  [[nodiscard]] std::string image_key(std::uint64_t epoch) const;
  [[nodiscard]] std::string manifest_key() const;
  /// Returns the modeled device seconds the flush charged.
  double flush_to_disk(CommCtx ctx, std::uint64_t epoch, bool from_staged);
  [[nodiscard]] Manifest load_manifest() const;
  void store_manifest(const Manifest& manifest);
  [[nodiscard]] std::uint64_t newest_disk_epoch() const;
  CommitStats commit_impl(CommCtx ctx, CommitStats stats, bool from_staged);

  Params params_;
  std::unique_ptr<CheckpointProtocol> inner_;
  int world_rank_ = -1;
  /// Flush cadence counter. Touched by whichever thread runs the commit;
  /// the async engine's ticket hand-off orders those accesses.
  int commits_since_flush_ = 0;
  /// Atomic: the async worker publishes flush results while the rank
  /// thread may poll disk_epoch()/flushes().
  std::atomic<std::uint64_t> disk_epoch_ = 0;
  std::atomic<int> flushes_ = 0;
  bool used_disk_ = false;
};

}  // namespace skt::ckpt
