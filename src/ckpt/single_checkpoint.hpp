// Single in-memory checkpoint (Fig. 2): one (B, C) pair in SHM and the
// application data A in ordinary memory. Cheapest on memory among the
// encoded strategies, but a failure inside the update window leaves B and
// C inconsistent — restore() then throws Unrecoverable, exactly the
// limitation the paper's CASE 2 illustrates.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ckpt/header.hpp"
#include "ckpt/protocol.hpp"
#include "encoding/group_codec.hpp"
#include "util/aligned.hpp"

namespace skt::ckpt {

class SingleCheckpoint final : public CheckpointProtocol {
 public:
  struct Params {
    std::string key_prefix = "skt";
    std::size_t data_bytes = 0;
    std::size_t user_bytes = 64;
    enc::CodecKind codec = enc::CodecKind::kXor;
    /// Allocate a heap staging buffer for stage()/commit_staged(). Unlike
    /// the self-checkpoint S it is NOT in SHM: this strategy's recovery
    /// never reads the staging copy (a failure inside the update window is
    /// unrecoverable either way), so nothing persistent changes.
    bool async_staging = false;
    /// Owner tag for every created segment (tenant namespace; may be "").
    std::string owner;
  };

  explicit SingleCheckpoint(Params params);

  bool open(CommCtx ctx) override;
  [[nodiscard]] std::span<std::byte> data() override;
  [[nodiscard]] std::span<std::byte> user_state() override;
  CommitStats commit(CommCtx ctx) override;
  RestoreStats restore(CommCtx ctx) override;
  [[nodiscard]] bool supports_async() const override { return params_.async_staging; }
  double stage() override;
  CommitStats commit_staged(CommCtx ctx) override;
  [[nodiscard]] std::span<const std::byte> staged() const override;
  [[nodiscard]] std::size_t memory_bytes() const override;
  [[nodiscard]] Strategy strategy() const override { return Strategy::kSingle; }
  [[nodiscard]] std::uint64_t committed_epoch() const override;
  [[nodiscard]] DirtyTracker* dirty_tracker() override { return &tracker_; }

 private:
  [[nodiscard]] std::string key(const char* part) const;
  void require_open() const;
  CommitStats commit_impl(CommCtx ctx, bool async);

  Params params_;
  std::size_t combined_bytes_ = 0;
  std::optional<enc::GroupCodec> codec_;

  std::vector<std::byte> app_;   // A — ordinary memory
  std::vector<std::byte> user_;  // A2
  /// Padded [A|A2] snapshot mirror — the staged commit source, allocated
  /// only with async_staging; stage() refreshes dirty runs only.
  util::AlignedBytes image_;
  /// Blocks dirtied since the last snapshot (stage() or sync commit).
  DirtyTracker tracker_;
  /// Runs where image_ may differ from the committed B (accumulates
  /// across stage() calls, cleared by the staged commit's flush).
  enc::RunSet staged_;

  int world_rank_ = -1;
  bool survivor_ = false;
  sim::SegmentPtr ckpt_b_;   // [A|A2|pad] copy
  sim::SegmentPtr check_c_;  // checksum stripe of B
  sim::SegmentPtr header_;   // bc_epoch = committed, d_epoch = in-progress
};

}  // namespace skt::ckpt
