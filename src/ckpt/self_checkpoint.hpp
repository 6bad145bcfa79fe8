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
// of Fig. 4. The epoch agreement, the begin and closing barriers and the
// encode bracket are GroupCheckpoint's frame.
//
// Async staging (FactoryParams::async_staging): a fifth SHM segment S
// receives a sealed point-in-time copy of [A1|B2] at stage(); the whole
// state machine above then runs from S on the async worker
// (commit_staged), while the application keeps mutating A1. Because S
// lives in the persistent store, CASE 2 simply swaps (work, D) for (S, D):
// a failure anywhere in the background pipeline recovers from the staged
// copy. In this mode even a synchronous commit() encodes from S, so the
// recovery-set rule never depends on which pipeline the interrupted
// commit used.
#pragma once

#include <vector>

#include "ckpt/group_checkpoint.hpp"

namespace skt::ckpt {

class SelfCheckpoint final : public GroupCheckpoint {
 public:
  /// parity_degree m is the degree of the group code (enc::GroupCodec):
  /// 1 is the paper's single-erasure checksum over `codec`; m >= 2 adds
  /// parity rows, tolerating m simultaneous node losses per group (needs
  /// group size >= m + 2; GF(2^8)-based regardless of `codec`).
  explicit SelfCheckpoint(FactoryParams params) : GroupCheckpoint(std::move(params), "self") {}

  [[nodiscard]] std::span<std::byte> data() override;
  [[nodiscard]] std::size_t memory_bytes() const override;
  [[nodiscard]] Strategy strategy() const override { return Strategy::kSelf; }
  [[nodiscard]] std::vector<ScrubRegion> scrub_view() override;

 private:
  void create_segments(sim::PersistentStore& store) override;
  void stage_dirty() override;
  void commit_steps(Commit& c) override;
  std::uint64_t restore_steps(CommCtx ctx, const EpochSummary& global,
                              std::span<const int> missing) override;
  void reseed(std::uint64_t epoch) override;
  /// The S segment changes the persistent layout, so the field records it.
  [[nodiscard]] std::uint32_t codec_field() const override;

  /// Runs the staged copy S differs from B on — the encode/flush set of
  /// the in-flight staged commit. Populated by stage(). Async only.
  std::vector<enc::BlockRun> staged_runs_;

  sim::SegmentPtr work_;
  sim::SegmentPtr ckpt_b_;
  sim::SegmentPtr check_c_;
  sim::SegmentPtr check_d_;
  sim::SegmentPtr stage_;  // S, async_staging only
};

}  // namespace skt::ckpt
