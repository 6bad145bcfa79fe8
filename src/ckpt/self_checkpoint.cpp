#include "ckpt/self_checkpoint.hpp"

#include <cstring>

#include "telemetry/trace.hpp"
#include "util/clock.hpp"

namespace skt::ckpt {

std::uint32_t SelfCheckpoint::codec_field() const {
  return GroupCheckpoint::codec_field() | (params_.async_staging ? 1u << 16 : 0u);
}

void SelfCheckpoint::create_segments(sim::PersistentStore& store) {
  const std::size_t padded = coder_->padded_bytes();
  const std::size_t stripe = coder_->redundancy_bytes();
  staged_runs_ = tracker_.runs();  // un-annotated: every stripe whole
  work_ = store.create(key("work"), padded, params_.owner);
  ckpt_b_ = store.create(key("B"), padded, params_.owner);
  check_c_ = store.create(key("C"), stripe, params_.owner);
  check_d_ = store.create(key("D"), stripe, params_.owner);
  if (params_.async_staging) stage_ = store.create(key("S"), padded, params_.owner);
}

std::span<std::byte> SelfCheckpoint::data() {
  require_open();
  return work_->bytes().subspan(0, params_.data_bytes);
}

void SelfCheckpoint::stage_dirty() {
  // Seal [A1|B2|pad] into S; the user-space A2 lands directly in S's B2
  // slot, so the staged domain is self-contained. S equals B (and work as
  // of the previous stage) on every clean block, so an annotated
  // application pays only its dirty footprint here — the whole critical
  // path of an async commit.
  tracker_.mark_user_tail();
  staged_runs_ = tracker_.runs();
  for (const enc::BlockRun& run : staged_runs_) {
    const enc::ByteRange r = enc::run_bytes(run, tracker_.stripe_bytes());
    std::memcpy(stage_->bytes().data() + r.begin, work_->bytes().data() + r.begin, r.size());
  }
  std::memcpy(stage_->bytes().data() + params_.data_bytes, user_.data(), params_.user_bytes);
  tracker_.clear();
}

void SelfCheckpoint::commit_steps(Commit& c) {
  // The encoded domain: the staged copy S when staging, else work itself.
  const std::span<std::byte> source =
      params_.async_staging ? stage_->bytes() : work_->bytes();

  if (!params_.async_staging) {
    // Step 2 (Fig. 5): copy the user-space A2 into the SHM-resident B2 so
    // the encoded domain [A1|B2] is one contiguous buffer. (When staging,
    // stage() already placed A2 into S.)
    std::memcpy(work_->bytes().data() + params_.data_bytes, user_.data(), params_.user_bytes);
    tracker_.mark_user_tail();
    c.ctx.group.failpoint("ckpt.copy_a2");
  }

  // The runs the source side differs from the committed B on: the staged
  // set captured by stage(), or the live tracker. Un-annotated
  // applications resolve to all-dirty (full encode + flush).
  c.dirty = params_.async_staging ? staged_runs_ : tracker_.runs();

  // Step 3: encode the source side's checksum D. The delta form reuses the
  // sealed B as the base and folds the dirty runs' diffs into D in place:
  // C == D between commits (every flush and restore leaves them equal), so
  // D already holds the old checksum, and C stays intact for a CASE-1
  // rollback if the encode is interrupted. Mostly-dirty commits take the
  // full encode instead.
  c.ctx.group.failpoint(c.async ? "ckpt.async_encode_begin" : "ckpt.encode_begin");
  const std::vector<enc::BlockRun> checksum_changed =
      encode(c, ckpt_b_->bytes(), source, check_d_->bytes());

  {
    // Seal: after this global barrier every rank knows D is complete
    // everywhere, so (source, D) becomes a valid recovery set.
    SKT_SPAN("ckpt.seal");
    encode_barrier(c);
    c.header.d_epoch = c.stats.epoch;
    store_header(header_, c.header);
    c.ctx.group.failpoint(c.async ? "ckpt.async_sealed" : "ckpt.sealed");
    c.ctx.world.barrier();
  }

  // Step 4: flush the source side over the old checkpoint. A failure here
  // is CASE 2 of Fig. 4 — recovery uses (source, D).
  util::WallTimer flush_timer;
  {
    SKT_SPAN("ckpt.flush");
    // B equals the source on every clean block (the previous flush made
    // them identical and clean means untouched since), so only dirty runs
    // move.
    for (const enc::BlockRun& run : c.dirty) {
      const enc::ByteRange r = enc::run_bytes(run, tracker_.stripe_bytes());
      std::memcpy(ckpt_b_->bytes().data() + r.begin, source.data() + r.begin, r.size());
    }
    c.ctx.group.failpoint(c.async ? "ckpt.async_mid_flush" : "ckpt.mid_flush");
    // D still equals C outside the runs the encode changed, so only those
    // move.
    for (const enc::BlockRun& run : checksum_changed) {
      const enc::ByteRange r = enc::run_bytes(run, coder_->stripe_bytes());
      std::memcpy(check_c_->bytes().data() + r.begin, check_d_->bytes().data() + r.begin,
                  r.size());
    }
  }
  c.stats.flush_s = flush_timer.seconds();
  if (!params_.async_staging) tracker_.clear();
  c.header.bc_epoch = c.stats.epoch;
  c.sealed = std::span<const std::byte>(ckpt_b_->bytes()).first(combined_bytes_);
}

void SelfCheckpoint::reseed(std::uint64_t epoch) {
  Header h = header_or_init();
  h.bc_epoch = epoch;
  h.d_epoch = epoch;
  store_header(header_, h);
  // The caller just reloaded this rank's state; it is a survivor for every
  // subsequent epoch summary.
  survivor_ = true;
}

std::uint64_t SelfCheckpoint::restore_steps(CommCtx ctx, const EpochSummary& global,
                                            std::span<const int> missing) {
  // Side selection. The commit's global barriers guarantee: if any rank
  // started flushing, every rank sealed D first — so a mixed bc range
  // implies a uniform d range one epoch ahead.
  bool use_a_side = false;
  std::uint64_t target = 0;
  if (global.d_min == global.d_max && global.d_min > global.bc_min) {
    use_a_side = true;
    target = global.d_min;
  } else if (global.bc_min == global.bc_max) {
    use_a_side = false;
    target = global.bc_min;
  } else {
    throw Unrecoverable("self-checkpoint: inconsistent epochs (bc " +
                        std::to_string(global.bc_min) + ".." + std::to_string(global.bc_max) +
                        ", d " + std::to_string(global.d_min) + ".." +
                        std::to_string(global.d_max) + ")");
  }
  if (target == 0) {
    throw Unrecoverable("self-checkpoint: no committed checkpoint to restore");
  }

  // CASE 1 (Fig. 4) rolls back to (B, C): survivors reload their working
  // buffer and D from them, so the lost member's B and C are rebuilt into
  // its working buffer and D like any other restore. CASE 2 keeps the
  // working side (work, D) as the newest consistent set — or, staged, the
  // staged copy S, not the live working buffer the application kept
  // mutating.
  const bool staged = use_a_side && params_.async_staging;
  if (!use_a_side && survivor_) {
    SKT_SPAN("ckpt.restore.reload");
    std::memcpy(work_->bytes().data(), ckpt_b_->bytes().data(), work_->size());
    std::memcpy(check_d_->bytes().data(), check_c_->bytes().data(), check_c_->size());
  }
  if (!missing.empty()) {
    SKT_SPAN("ckpt.restore.rebuild");
    coder_->rebuild(ctx.group, missing, (staged ? stage_ : work_)->bytes(), check_d_->bytes());
  }
  {
    SKT_SPAN("ckpt.restore.reload");
    // Complete the interrupted flush (CASE 2) or hand the rebuilt member
    // its B and C (CASE 1), then roll the working buffer back to S.
    if (use_a_side || !survivor_) {
      const sim::SegmentPtr& image = staged ? stage_ : work_;
      std::memcpy(ckpt_b_->bytes().data(), image->bytes().data(), image->size());
      std::memcpy(check_c_->bytes().data(), check_d_->bytes().data(), check_d_->size());
    }
    if (staged) std::memcpy(work_->bytes().data(), stage_->bytes().data(), stage_->size());

    // Restore A2 from the checkpointed B2 area and re-sync the header.
    std::memcpy(user_.data(), work_->bytes().data() + params_.data_bytes, params_.user_bytes);
    if (params_.async_staging) {
      // Re-seed S from the restored state: the (S, D) recovery-set rule
      // requires S to match the encoded domain before the next commit.
      std::memcpy(stage_->bytes().data(), work_->bytes().data(), work_->size());
    }
    Header h = header_or_init();
    h.bc_epoch = target;
    h.d_epoch = target;
    store_header(header_, h);
    survivor_ = true;
    // work == B (== S) everywhere now, so nothing is dirty.
    tracker_.clear();
    staged_runs_.clear();
  }
  return target;
}

std::size_t SelfCheckpoint::memory_bytes() const {
  if (!work_) return 0;
  // work (A1+B2) + B + C + D + [S] + A2 + header
  return work_->size() + ckpt_b_->size() + check_c_->size() + check_d_->size() +
         (stage_ ? stage_->size() : 0) + user_.size() + sizeof(Header);
}

std::vector<ScrubRegion> SelfCheckpoint::scrub_view() {
  require_open();
  // After any flush C == D (the flush copies D over C) and both stay
  // untouched until the next encode, so each is the other's repair
  // mirror. B has no quiescent twin — the working buffer drifts and the
  // staging copy S is restaged off the commit lock — so a corrupt B
  // chunk is detectable but only repairable by the group (a restore).
  return {{"B", ckpt_b_->bytes(), {}},
          {"C", check_c_->bytes(), check_d_->bytes()},
          {"D", check_d_->bytes(), check_c_->bytes()}};
}

}  // namespace skt::ckpt
