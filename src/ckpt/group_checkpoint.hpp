// The commit frame shared by the group-coded strategies: single (Fig. 2),
// double (Fig. 3) and self (Fig. 5) checkpoints.
//
// All three run one skeleton. A commit agrees on its epoch with a world
// max-reduce, passes the begin failpoint and a world barrier, runs the
// strategy's own steps, then stores the header the steps left and passes
// the flushed failpoint and a closing world barrier. Inside the steps, the
// frame owns the encode bracket (the ckpt.encode span, wall and modeled
// time, the encode_done failpoint) and the first world barrier after it,
// a world sum of the encode's wire bytes. It also owns the dirty
// accounting and one critical-path rule: a synchronous commit records
// encode_s + flush_s as "checkpoint" time, measured wall time only.
//
// Level 2 (FactoryParams::level2_flush_every, the SCR/FTI composition the
// paper points at in Sections 2.1 and 7) is a step of the same frame:
// every N-th commit writes the checkpoint copy the steps just sealed to
// the vault's DiskImages after the closing barrier, and passes one more
// world barrier, since a disk generation is only usable once every rank
// wrote it.
//
// open() checks a surviving header's layout against the parameters, sums
// up survivors and epochs world-wide, and writes a fresh header only on a
// globally fresh start. restore() runs the epoch agreement, the group's
// loss budget, the recover timer and the closing barrier around the
// strategy's side choice, rebuild and reload. With level 2 it first votes
// world-wide on whether every group can rebuild, and falls back to the
// newest disk generation every rank holds when one cannot.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ckpt/disk_images.hpp"
#include "ckpt/epoch.hpp"
#include "ckpt/factory.hpp"
#include "ckpt/header.hpp"
#include "ckpt/protocol.hpp"
#include "encoding/group_codec.hpp"

namespace skt::ckpt {

class GroupCheckpoint : public CheckpointProtocol {
 public:
  bool open(CommCtx ctx) final;
  [[nodiscard]] std::span<std::byte> user_state() final { return user_; }
  CommitStats commit(CommCtx ctx) final;
  double stage() final;
  CommitStats commit_staged(CommCtx ctx) final;
  RestoreStats restore(CommCtx ctx) final;
  [[nodiscard]] std::uint64_t committed_epoch() const final;
  [[nodiscard]] DirtyTracker* dirty_tracker() final { return &tracker_; }
  [[nodiscard]] int max_failures() const final;

 protected:
  /// `tag` names the strategy in segment keys ("<prefix>.r<rank>.<tag>.").
  GroupCheckpoint(FactoryParams params, const char* tag);

  /// One commit in flight: what the frame agreed on and measures, and what
  /// the strategy's steps hand back to it.
  struct Commit {
    CommCtx ctx;
    bool async = false;
    /// Stored by the frame once the steps return.
    Header header;
    CommitStats stats;
    /// The runs this commit moves, set by the steps. The frame accounts
    /// them: every strategy flushes exactly these runs.
    std::vector<enc::BlockRun> dirty;
    /// This rank's share of the encode's wire bytes.
    std::uint64_t encode_sent_bytes = 0;
    /// The checkpoint copy the steps sealed, laid out [data | user state]:
    /// what a level-2 flush writes.
    std::span<const std::byte> sealed;
  };

  /// open(): create the strategy's segments, after the tracker's reset and
  /// before the header's.
  virtual void create_segments(sim::PersistentStore& store) = 0;
  /// stage(): copy the runs dirtied since the last snapshot into the
  /// staging buffer.
  virtual void stage_dirty() = 0;
  /// The commit's steps between the begin barrier and the publication.
  virtual void commit_steps(Commit& c) = 0;
  /// Choose the recovery source, rebuild `missing` and reload; returns the
  /// restored epoch. Throws Unrecoverable when no consistent set exists.
  virtual std::uint64_t restore_steps(CommCtx ctx, const EpochSummary& global,
                                      std::span<const int> missing) = 0;
  /// The header's codec field, compared on re-open: the code and its degree.
  [[nodiscard]] virtual std::uint32_t codec_field() const;
  /// A disk restore reloaded generation `epoch + 1`: rewind the stored
  /// epochs to `epoch`, so the restore's commit re-mints exactly that
  /// generation and the epoch stays in step with the application's own
  /// progress counter. Default: nothing (a reseeded pair would look
  /// complete again).
  virtual void reseed(std::uint64_t epoch) { (void)epoch; }

  [[nodiscard]] std::string key(const std::string& part) const;
  void require_open() const;
  /// This rank's header, or a fresh epoch-0 one with this layout.
  [[nodiscard]] Header header_or_init() const;
  /// The encode bracket over c.dirty. Returns the runs of `redundancy`
  /// the encode changed.
  std::vector<enc::BlockRun> encode(Commit& c, std::span<const std::byte> base,
                                    std::span<const std::byte> next,
                                    std::span<std::byte> redundancy);
  /// The first world barrier after the encode; it sums the encode's wire
  /// bytes over the world into c.stats.
  void encode_barrier(Commit& c);

  FactoryParams params_;
  std::size_t combined_bytes_ = 0;  // data + user state
  std::optional<enc::GroupCodec> coder_;
  std::vector<std::byte> user_;  // A2, ordinary (non-SHM) memory
  /// Blocks dirtied since the last snapshot (stage() or sync commit).
  DirtyTracker tracker_;
  bool survivor_ = false;  // a valid header existed at open(), or restore() ran
  sim::SegmentPtr header_;

 private:
  /// `level2`: this commit counts toward the level-2 cadence (a disk
  /// restore's own commit does not).
  CommitStats commit_frame(CommCtx ctx, bool async, bool level2 = true);
  RestoreStats restore_level1(CommCtx ctx);
  RestoreStats restore_from_disk(CommCtx ctx);

  const char* tag_;
  int world_rank_ = -1;
  int group_size_ = 0;
  /// Level 2's generations; set by open() when level2_flush_every > 0.
  std::optional<DiskImages> disk_;
  /// Level-2 cadence counter. Touched by whichever thread runs the
  /// commit; the Session's one-epoch-in-flight drain orders those accesses.
  int commits_since_flush_ = 0;
};

}  // namespace skt::ckpt
