// Self-checkpoint — the paper's contribution (Section 3).
//
// Memory layout per rank, all in SHM except A2:
//
//   work = [ A1 (data_bytes) | B2 (user_bytes) | pad ]   — the application
//          computes directly in A1; B2 receives a copy of the user-space
//          A2 at every commit so the encoded domain is contiguous.
//   B    = full copy of work (the committed checkpoint)
//   C    = checksum stripe protecting B            (epoch bc_epoch)
//   D    = checksum stripe protecting work         (epoch d_epoch)
//   hdr  = commit state machine record
//
// Commit (Fig. 5):  copy A2→B2,  encode D,  seal (d_epoch+1),  flush
// work→B and D→C,  finalize (bc_epoch+1).  Global barriers separate the
// phases, so after any single node failure either (B, C) or (work, D) is
// a consistent erasure-coded set across the whole job — CASE 1 / CASE 2
// of Fig. 4.
//
// Async staging (Params::async_staging): a fifth SHM segment S receives a
// sealed point-in-time copy of [A1|B2] at stage(); the whole state machine
// above then runs from S on the async worker (commit_staged), while the
// application keeps mutating A1. Because S lives in the persistent store,
// CASE 2 simply swaps (work, D) for (S, D): a failure anywhere in the
// background pipeline recovers from the staged copy. In this mode even a
// synchronous commit() encodes from S, so the recovery-set rule never
// depends on which pipeline the interrupted commit used.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ckpt/header.hpp"
#include "ckpt/protocol.hpp"
#include "encoding/erasure_coder.hpp"

namespace skt::ckpt {

class SelfCheckpoint final : public CheckpointProtocol {
 public:
  struct Params {
    std::string key_prefix = "skt";
    std::size_t data_bytes = 0;
    std::size_t user_bytes = 64;
    enc::CodecKind codec = enc::CodecKind::kXor;
    /// 1 = the paper's single-erasure encoding; 2 = the RAID-6-style
    /// extension tolerating two simultaneous node losses per group (needs
    /// group size >= 4; codec is GF(2^8)-based regardless of `codec`).
    int parity_degree = 1;
    /// Allocate the S staging segment and route every encode through it
    /// (see the header comment). Recorded in the checkpoint header, so a
    /// restart must use the same setting.
    bool async_staging = false;
    /// Owner tag for every created segment (tenant namespace; may be "").
    std::string owner;
  };

  explicit SelfCheckpoint(Params params);

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
  [[nodiscard]] int max_failures() const override;

 private:
  [[nodiscard]] std::string key(const char* part) const;
  void require_open() const;
  [[nodiscard]] std::span<std::byte> work_span() { return work_->bytes(); }
  [[nodiscard]] std::uint32_t codec_field() const;
  CommitStats commit_impl(CommCtx ctx, bool async);

  Params params_;
  std::size_t combined_bytes_ = 0;  // A1 + B2 payload
  std::unique_ptr<enc::ErasureCoder> coder_;
  std::vector<std::byte> user_;  // A2, ordinary (non-SHM) memory
  /// Blocks dirtied since the last commit (sync) / last stage() (async).
  DirtyTracker tracker_;
  /// Runs the staged copy S differs from B on — the encode/flush set of
  /// the in-flight staged commit. Populated by stage(). Async only.
  std::vector<enc::BlockRun> staged_runs_;

  int world_rank_ = -1;
  bool survivor_ = false;  // header existed at open()
  sim::SegmentPtr work_;
  sim::SegmentPtr ckpt_b_;
  sim::SegmentPtr check_c_;
  sim::SegmentPtr check_d_;
  sim::SegmentPtr stage_;  // S, async_staging only
  sim::SegmentPtr header_;
};

}  // namespace skt::ckpt
