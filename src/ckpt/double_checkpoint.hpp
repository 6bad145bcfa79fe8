// Double in-memory checkpoint (Fig. 3) — the state-of-the-art baseline
// (SCR's in-memory level; Zheng et al.'s buddy scheme generalized to
// groups). Two (checkpoint, checksum) pairs alternate as commit targets,
// so one complete pair always exists; the price is a second full copy,
// leaving less than 1/3 of memory for the application (Eq. 3).
//
// Dirty-block commits: because epoch e overwrites pair e % 2, the target
// pair's content is two commits old, so each pair carries its own
// accumulated dirty set (`pair_dirty_`): every snapshot's dirty runs fold
// into BOTH pairs, and a pair's set is cleared only when that pair
// commits. A clean block of the target pair therefore already equals the
// content to commit, so the flush copies only dirty runs and the encode
// goes through ErasureCoder::encode_delta — the old content of the dirty
// runs (the delta base) is saved into a transient scratch just before the
// flush overwrites them. With async staging, the padded aligned `image_`
// mirror is refreshed dirty-runs-only by stage() and serves as the commit
// source.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ckpt/header.hpp"
#include "ckpt/protocol.hpp"
#include "encoding/erasure_coder.hpp"
#include "util/aligned.hpp"

namespace skt::ckpt {

class DoubleCheckpoint final : public CheckpointProtocol {
 public:
  struct Params {
    std::string key_prefix = "skt";
    std::size_t data_bytes = 0;
    std::size_t user_bytes = 64;
    enc::CodecKind codec = enc::CodecKind::kXor;
    /// 1 = single parity (the paper layout); m >= 2 = RS(k, m) groups
    /// tolerating m concurrent losses per group.
    int parity_degree = 1;
    /// Heap staging buffer for stage()/commit_staged(); recovery never
    /// reads it (the untouched pair covers every failure window).
    bool async_staging = false;
    /// Owner tag for every created segment (tenant namespace; may be "").
    std::string owner;
  };

  explicit DoubleCheckpoint(Params params);

  bool open(CommCtx ctx) override;
  [[nodiscard]] std::span<std::byte> data() override;
  [[nodiscard]] std::span<std::byte> user_state() override;
  CommitStats commit(CommCtx ctx) override;
  [[nodiscard]] bool restore_feasible(CommCtx ctx) override;
  RestoreStats restore(CommCtx ctx) override;
  [[nodiscard]] bool supports_async() const override { return params_.async_staging; }
  double stage() override;
  CommitStats commit_staged(CommCtx ctx) override;
  [[nodiscard]] std::span<const std::byte> staged() const override;
  [[nodiscard]] std::size_t memory_bytes() const override;
  [[nodiscard]] Strategy strategy() const override { return Strategy::kDouble; }
  [[nodiscard]] std::uint64_t committed_epoch() const override;
  [[nodiscard]] DirtyTracker* dirty_tracker() override { return &tracker_; }
  [[nodiscard]] std::vector<ScrubRegion> scrub_view() override;
  [[nodiscard]] int max_failures() const override;

 private:
  [[nodiscard]] std::string key(const char* part, int pair) const;
  [[nodiscard]] std::string key(const char* part) const;
  void require_open() const;
  /// Fold the tracker's runs (tail included) into both pairs' accumulated
  /// sets, clear the tracker, and return the runs.
  std::vector<enc::BlockRun> fold_dirty();
  CommitStats commit_impl(CommCtx ctx, bool async);

  Params params_;
  std::size_t combined_bytes_ = 0;
  std::unique_ptr<enc::ErasureCoder> coder_;

  std::vector<std::byte> app_;
  std::vector<std::byte> user_;
  /// Padded [A|A2] snapshot mirror — the staged commit source, allocated
  /// only with async_staging. Outside a commit it equals the content of
  /// the last stage(), so stage() refreshes dirty runs only.
  util::AlignedBytes image_;
  /// Blocks dirtied since the last snapshot (stage() or sync commit).
  DirtyTracker tracker_;
  /// Per pair: runs where image_ may differ from that pair's committed
  /// content. Cleared only when the pair commits.
  enc::RunSet pair_dirty_[2];

  int world_rank_ = -1;
  bool survivor_ = false;
  sim::SegmentPtr ckpt_[2];   // B, b
  sim::SegmentPtr check_[2];  // C, c
  sim::SegmentPtr header_;    // bc_epoch = pair 0's epoch, d_epoch = pair 1's
};

}  // namespace skt::ckpt
