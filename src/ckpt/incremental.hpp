// Incremental self-checkpoint — the Plank-style incremental idea
// (paper Section 7) fused with the self-checkpoint state machine.
//
// With the XOR codec, the new working-side checksum is derivable from the
// old one and the *changes only*:
//
//   diff_p[s]  =  B_p[s] XOR work_p[s]          (dirty stripes only)
//   D_f        =  C_f  XOR  (XOR of the diff_p[f] sent to f's owner)
//
// so both the encode (network) and the flush (memcpy) cost scale with the
// application's dirty footprint between checkpoints instead of its full
// memory: after one small flag allgather, each dirty stripe's diff crosses
// the wire once, on a tree toward its family's owner, and clean stripes
// move nothing (the group codec's encode_delta; at half-dirty or more it
// runs the full ring encode instead). Recovery is IDENTICAL to SelfCheckpoint — (B, C) and
// (work, D) are full erasure-coded sets at all times — so the Fig. 4 CASE
// 1/2 analysis carries over unchanged.
//
// The paper's point stands and is measured in bench/ablation_incremental:
// HPL dirties almost every byte between checkpoints, so incremental buys
// nothing there; for sparse-update applications it is a large win.
//
// Async staging (Params::async_staging): stage() copies only the stripes
// dirtied since the previous stage into the SHM-resident S — the critical
// path keeps the dirty-footprint scaling — and the background pipeline
// encodes/flushes from S using the staged dirty set. S always equals the
// working buffer as of the last stage(), so (S, D) is a full recovery set
// and the CASE 1/2 analysis again carries over unchanged.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ckpt/header.hpp"
#include "ckpt/protocol.hpp"
#include "encoding/group_codec.hpp"
#include "encoding/rs_group.hpp"

namespace skt::ckpt {

class IncrementalSelfCheckpoint final : public CheckpointProtocol {
 public:
  struct Params {
    std::string key_prefix = "skt";
    std::size_t data_bytes = 0;
    std::size_t user_bytes = 64;
    // XOR only: the incremental identity needs a self-inverse "+".
    /// 1 = plain-XOR single parity (the paper layout); m >= 2 routes the
    /// delta encode through the RS(k, m) group codec, whose GF-weighted
    /// parity obeys the same incremental identity (P' = P ^ sum c * diff)
    /// and tolerates m concurrent losses.
    int parity_degree = 1;
    /// Allocate the S staging segment and route every encode through it.
    /// Recorded in the checkpoint header; a restart must match.
    bool async_staging = false;
    /// Owner tag for every created segment (tenant namespace; may be "").
    std::string owner;
  };

  explicit IncrementalSelfCheckpoint(Params params);

  bool open(CommCtx ctx) override;
  [[nodiscard]] std::span<std::byte> data() override;
  [[nodiscard]] std::span<std::byte> user_state() override;
  CommitStats commit(CommCtx ctx) override;
  [[nodiscard]] bool restore_feasible(CommCtx ctx) override;
  void reseed_epoch(CommCtx ctx, std::uint64_t epoch) override;
  RestoreStats restore(CommCtx ctx) override;
  [[nodiscard]] bool supports_async() const override { return params_.async_staging; }
  double stage() override;
  CommitStats commit_staged(CommCtx ctx) override;
  [[nodiscard]] std::span<const std::byte> staged() const override;
  [[nodiscard]] std::size_t memory_bytes() const override;
  [[nodiscard]] Strategy strategy() const override { return Strategy::kSelf; }
  [[nodiscard]] std::uint64_t committed_epoch() const override;
  [[nodiscard]] DirtyTracker* dirty_tracker() override { return &tracker_; }
  [[nodiscard]] std::vector<ScrubRegion> scrub_view() override;
  [[nodiscard]] int max_failures() const override {
    return rs_ ? rs_->parity_count() : 1;
  }

  /// Declare [offset, offset+len) of data() modified since the last
  /// commit. Unmarked changes would silently corrupt the checkpoint, so
  /// open()/restore() conservatively mark everything dirty, and the
  /// harness-level tests kill mid-commit to prove the tracking.
  void mark_dirty(std::size_t offset, std::size_t len);

  /// Mark the whole working buffer dirty (full-footprint applications).
  void mark_all_dirty();

  /// Dirty payload bytes that the next commit will encode/flush. Counts the
  /// tracker's raw flags: unlike the non-incremental protocols, unmarked
  /// means clean here (the documented contract), so no all-dirty fallback.
  [[nodiscard]] std::size_t dirty_bytes() const;

  /// Families (stripes) the last commit actually encoded — the measure of
  /// the incremental saving.
  [[nodiscard]] int last_encoded_families() const { return last_encoded_families_; }

 private:
  [[nodiscard]] std::string key(const char* part) const;
  void require_open() const;
  [[nodiscard]] std::uint32_t codec_field() const;
  CommitStats commit_impl(CommCtx ctx, bool async);

  Params params_;
  std::size_t combined_bytes_ = 0;
  /// Exactly one of the two is live: the plain-XOR codec for parity 1
  /// (bit-compatible with the paper layout) or the RS(k, m) codec.
  std::unique_ptr<enc::GroupCodec> codec_;
  std::unique_ptr<enc::RSGroupCodec> rs_;
  std::vector<std::byte> user_;
  /// Stripes dirtied since the last commit (sync) / last stage() (async).
  /// Read through flags() — raw incremental semantics, N-1 local stripes.
  DirtyTracker tracker_;
  /// Stripes the staged copy S differs from B on — the encode/flush set of
  /// the in-flight staged commit. Populated by stage(), cleared by its
  /// flush. Async staging only.
  std::vector<std::uint8_t> staged_dirty_;
  int last_encoded_families_ = 0;

  int world_rank_ = -1;
  int group_size_ = 0;
  bool survivor_ = false;
  sim::SegmentPtr work_;
  sim::SegmentPtr ckpt_b_;
  sim::SegmentPtr check_c_;
  sim::SegmentPtr check_d_;
  sim::SegmentPtr stage_;  // S, async_staging only
  sim::SegmentPtr header_;
};

}  // namespace skt::ckpt
