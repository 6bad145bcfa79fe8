// Single (Fig. 2) and double (Fig. 3) in-memory checkpoints: one or two
// (checkpoint, checksum) pairs in SHM and the application data A in
// ordinary memory.
//
// Epoch e lives in pair e % pairs. A commit marks its pair's epoch slot
// kWriting (header.hpp), flushes the dirty runs into the pair, re-encodes
// its checksum and publishes the slot after a world barrier. Restore takes
// the newest pair whose slot is uniform across survivors, at least 1 and
// not being written:
//   * single (one pair) is the cheapest encoded strategy on memory, but a
//     failure inside the update window leaves its only pair torn, so
//     restore() throws Unrecoverable — the limitation the paper's CASE 2
//     illustrates;
//   * double (two pairs, SCR's in-memory level and Zheng et al.'s buddy
//     scheme generalized to groups) always overwrites the older pair, so
//     one complete pair always exists; the price is a second full copy,
//     leaving less than 1/3 of memory for the application (Eq. 3). Its
//     group code may carry m parity rows (FactoryParams::parity_degree);
//     single stays single-parity.
//
// Dirty-block commits: the target pair's content is `pairs` commits old,
// so each pair carries its own accumulated dirty set (`pair_dirty_`):
// every snapshot's dirty runs fold into every pair, and a pair's set is
// cleared only when that pair commits. A clean block of the target pair
// therefore already equals the content to commit, so the flush copies
// only dirty runs and the encode goes through GroupCodec::encode_delta —
// the old content of the dirty runs (the delta base) is saved into a
// transient scratch just before the flush overwrites them. With async
// staging, the padded aligned `image_` mirror is refreshed dirty-runs-only
// by stage() and serves as the commit source; recovery never reads it.
#pragma once

#include <vector>

#include "ckpt/group_checkpoint.hpp"
#include "util/aligned.hpp"

namespace skt::ckpt {

class PairedCheckpoint final : public GroupCheckpoint {
 public:
  /// `strategy` is Strategy::kSingle (one pair) or Strategy::kDouble (two).
  PairedCheckpoint(FactoryParams params, Strategy strategy);

  [[nodiscard]] std::span<std::byte> data() override;
  [[nodiscard]] std::size_t memory_bytes() const override;
  [[nodiscard]] Strategy strategy() const override { return strategy_; }
  [[nodiscard]] std::vector<ScrubRegion> scrub_view() override;

 private:
  void create_segments(sim::PersistentStore& store) override;
  void stage_dirty() override;
  void commit_steps(Commit& c) override;
  std::uint64_t restore_steps(CommCtx ctx, const EpochSummary& global,
                              std::span<const int> missing) override;
  /// Fold the tracker's runs (tail included) into every pair's accumulated
  /// set, clear the tracker, and return the runs.
  std::vector<enc::BlockRun> fold_dirty();

  Strategy strategy_;
  std::size_t pairs_;
  std::vector<std::byte> app_;  // A — ordinary memory
  /// Padded [A|A2] snapshot mirror — the staged commit source, allocated
  /// only with async_staging. Outside a commit it equals the content of
  /// the last stage(), so stage() refreshes dirty runs only.
  util::AlignedBytes image_;
  /// Per pair: runs where the snapshot may differ from that pair's
  /// committed content. Cleared only when the pair commits.
  std::vector<enc::RunSet> pair_dirty_;
  std::vector<sim::SegmentPtr> ckpt_;   // B, b
  std::vector<sim::SegmentPtr> check_;  // C, c
};

}  // namespace skt::ckpt
