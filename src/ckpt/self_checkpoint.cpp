#include "ckpt/self_checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "ckpt/epoch.hpp"
#include "telemetry/trace.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"

namespace skt::ckpt {

SelfCheckpoint::SelfCheckpoint(Params params) : params_(std::move(params)) {
  if (params_.data_bytes == 0) throw std::invalid_argument("SelfCheckpoint: data_bytes == 0");
  if (params_.user_bytes == 0) throw std::invalid_argument("SelfCheckpoint: user_bytes == 0");
  combined_bytes_ = params_.data_bytes + params_.user_bytes;
  user_.assign(params_.user_bytes, std::byte{0});
}

std::string SelfCheckpoint::key(const char* part) const {
  return params_.key_prefix + ".r" + std::to_string(world_rank_) + ".self." + part;
}

std::uint32_t SelfCheckpoint::codec_field() const {
  return static_cast<std::uint32_t>(params_.codec) |
         static_cast<std::uint32_t>(params_.parity_degree) << 8 |
         (params_.async_staging ? 1u << 16 : 0u);
}

void SelfCheckpoint::require_open() const {
  if (!work_) throw std::logic_error("SelfCheckpoint: open() has not been called");
}

bool SelfCheckpoint::open(CommCtx ctx) {
  world_rank_ = ctx.group.world_rank();
  coder_ = enc::make_coder(params_.parity_degree, params_.codec, combined_bytes_,
                           ctx.group.size());

  sim::PersistentStore& store = ctx.group.store();
  const std::string hdr_key = key("hdr");
  survivor_ = false;
  if (sim::SegmentPtr existing = store.attach(hdr_key); existing != nullptr) {
    const Header h = load_header(existing);
    if (h.valid()) {
      if (h.data_bytes != params_.data_bytes || h.user_bytes != params_.user_bytes ||
          h.group_size != static_cast<std::uint32_t>(ctx.group.size()) ||
          h.codec != codec_field()) {
        throw std::logic_error("SelfCheckpoint: existing checkpoint layout mismatch");
      }
      survivor_ = true;
    }
  }

  const std::size_t padded = coder_->padded_bytes();
  const std::size_t stripe = coder_->redundancy_bytes();
  tracker_.reset(params_.data_bytes, params_.user_bytes, coder_->stripe_bytes(),
                 coder_->stripe_count());
  staged_runs_ = tracker_.runs();  // un-annotated: every stripe whole
  work_ = store.create(key("work"), padded, params_.owner);
  ckpt_b_ = store.create(key("B"), padded, params_.owner);
  check_c_ = store.create(key("C"), stripe, params_.owner);
  check_d_ = store.create(key("D"), stripe, params_.owner);
  if (params_.async_staging) stage_ = store.create(key("S"), padded, params_.owner);
  header_ = store.create(hdr_key, sizeof(Header), params_.owner);

  const Header mine = load_header(header_);
  const EpochSummary global =
      summarize_epochs(ctx.world, survivor_, mine.bc_epoch, mine.d_epoch);
  if (!global.any_survivor) {
    // Globally fresh start: every rank initializes an epoch-0 header.
    // A blank node joining a job that has survivors must NOT write one —
    // it would masquerade as an epoch-0 survivor if a second failure hits
    // before its restore completes.
    store_header(header_, load_or_init(header_, params_.data_bytes, params_.user_bytes,
                                       static_cast<std::uint32_t>(ctx.group.size()),
                                       codec_field()));
    survivor_ = true;
    return false;
  }
  // A committed checkpoint exists iff some survivor sealed or flushed at
  // least one epoch.
  return global.bc_max >= 1 || global.d_max >= 1;
}

std::span<std::byte> SelfCheckpoint::data() {
  require_open();
  return work_->bytes().subspan(0, params_.data_bytes);
}

std::span<std::byte> SelfCheckpoint::user_state() { return user_; }

double SelfCheckpoint::stage() {
  require_open();
  if (!params_.async_staging) {
    throw std::logic_error("SelfCheckpoint: stage() without async_staging");
  }
  SKT_SPAN("ckpt.stage");
  util::WallTimer timer;
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
  return timer.seconds();
}

std::span<const std::byte> SelfCheckpoint::staged() const {
  if (!stage_) return {};
  return std::span<const std::byte>(stage_->bytes()).subspan(0, combined_bytes_);
}

CommitStats SelfCheckpoint::commit(CommCtx ctx) {
  require_open();
  // With staging enabled even a synchronous commit encodes from S, so the
  // CASE-2 recovery set is (S, D) no matter which pipeline was interrupted.
  if (params_.async_staging) stage();
  return commit_impl(ctx, /*async=*/false);
}

CommitStats SelfCheckpoint::commit_staged(CommCtx ctx) {
  require_open();
  if (!params_.async_staging) {
    throw std::logic_error("SelfCheckpoint: commit_staged() without async_staging");
  }
  return commit_impl(ctx, /*async=*/true);
}

CommitStats SelfCheckpoint::commit_impl(CommCtx ctx, bool async) {
  SKT_SPAN("ckpt.commit");
  // The encoded domain: the staged copy S when staging, else work itself.
  const std::span<std::byte> source =
      params_.async_staging ? stage_->bytes() : work_->bytes();
  Header h = load_or_init(header_, params_.data_bytes, params_.user_bytes,
                          static_cast<std::uint32_t>(ctx.group.size()), codec_field());
  // Agree on the epoch globally: after a disk-level fallback restore (see
  // MultiLevelCheckpoint) a replacement's header may lag the survivors'.
  const std::uint64_t next =
      ctx.world.allreduce_value<std::uint64_t>(h.bc_epoch, mpi::Max{}) + 1;

  ctx.group.failpoint(async ? "ckpt.async_begin" : "ckpt.begin");
  ctx.world.barrier();

  if (!params_.async_staging) {
    // Step 2 (Fig. 5): copy the user-space A2 into the SHM-resident B2 so
    // the encoded domain [A1|B2] is one contiguous buffer. (When staging,
    // stage() already placed A2 into S.)
    std::memcpy(work_->bytes().data() + params_.data_bytes, user_.data(), params_.user_bytes);
    tracker_.mark_user_tail();
    ctx.group.failpoint("ckpt.copy_a2");
  }

  // The runs the source side differs from the committed B on: the staged
  // set captured by stage(), or the live tracker. Un-annotated
  // applications resolve to all-dirty (full encode + flush).
  const std::vector<enc::BlockRun> dirty =
      params_.async_staging ? staged_runs_ : tracker_.runs();

  // Step 3: encode the source side's checksum D. The delta form reuses the
  // sealed B as the base and folds the dirty runs' diffs into D in place:
  // C == D between commits (every flush and restore leaves them equal), so
  // D already holds the old checksum, and C stays intact for a CASE-1
  // rollback if the encode is interrupted. Mostly-dirty commits take the
  // full ring encode instead.
  CommitStats stats;
  stats.epoch = next;
  tracker_.account(dirty, stats);
  telemetry::set_epoch(next);
  ctx.group.failpoint(async ? "ckpt.async_encode_begin" : "ckpt.encode_begin");
  const double encode_virtual_before = ctx.group.virtual_seconds();
  const std::uint64_t wire_before = ctx.group.runtime().wire_bytes();
  util::WallTimer encode_timer;
  std::vector<enc::BlockRun> checksum_changed;
  {
    SKT_SPAN("ckpt.encode");
    checksum_changed = coder_->encode_delta(ctx.group, ckpt_b_->bytes(), source,
                                            check_d_->bytes(), check_d_->bytes(), dirty);
  }
  stats.encode_s = encode_timer.seconds();
  stats.encode_virtual_s = ctx.group.virtual_seconds() - encode_virtual_before;
  ctx.group.failpoint(async ? "ckpt.async_encode_done" : "ckpt.encode_done");

  {
    // Seal: after this global barrier every rank knows D is complete
    // everywhere, so (source, D) becomes a valid recovery set.
    SKT_SPAN("ckpt.seal");
    ctx.world.barrier();
    // The encode's job-wide wire bytes, read only now: once this barrier
    // releases, every member's encode sends are done, so no rank's count
    // stops short of a slower member's last segments.
    stats.encode_wire_bytes = ctx.group.runtime().wire_bytes() - wire_before;
    h.d_epoch = next;
    store_header(header_, h);
    ctx.group.failpoint(async ? "ckpt.async_sealed" : "ckpt.sealed");
    ctx.world.barrier();
  }

  // Step 4: flush the source side over the old checkpoint. A failure here
  // is CASE 2 of Fig. 4 — recovery uses (source, D).
  util::WallTimer flush_timer;
  std::size_t flushed = 0;
  {
    SKT_SPAN("ckpt.flush");
    // B equals the source on every clean block (the previous flush made
    // them identical and clean means untouched since), so only dirty runs
    // move.
    for (const enc::BlockRun& run : dirty) {
      const enc::ByteRange r = enc::run_bytes(run, tracker_.stripe_bytes());
      std::memcpy(ckpt_b_->bytes().data() + r.begin, source.data() + r.begin, r.size());
      flushed += r.size();
    }
    ctx.group.failpoint(async ? "ckpt.async_mid_flush" : "ckpt.mid_flush");
    // D still equals C outside the runs the encode changed, so only those
    // move.
    for (const enc::BlockRun& run : checksum_changed) {
      const enc::ByteRange r = enc::run_bytes(run, coder_->stripe_bytes());
      std::memcpy(check_c_->bytes().data() + r.begin, check_d_->bytes().data() + r.begin,
                  r.size());
    }
  }
  stats.flush_s = flush_timer.seconds();
  if (!params_.async_staging) tracker_.clear();
  h.bc_epoch = next;
  store_header(header_, h);
  ctx.group.failpoint(async ? "ckpt.async_flushed" : "ckpt.flushed");
  ctx.world.barrier();

  stats.checkpoint_bytes = flushed;
  stats.checksum_bytes = check_d_->size();
  // The async worker's pipeline time is recorded as "ckpt_worker" by the
  // engine; only a synchronous commit charges the critical-path slot here.
  if (!async) ctx.group.record_time("checkpoint", stats.encode_s + stats.flush_s);
  return stats;
}

bool SelfCheckpoint::restore_feasible(CommCtx ctx) {
  return static_cast<int>(missing_members(ctx.group, survivor_).size()) <=
         coder_->max_failures();
}

void SelfCheckpoint::reseed_epoch(CommCtx ctx, std::uint64_t epoch) {
  Header h = load_or_init(header_, params_.data_bytes, params_.user_bytes,
                          static_cast<std::uint32_t>(ctx.group.size()), codec_field());
  h.bc_epoch = epoch;
  h.d_epoch = epoch;
  store_header(header_, h);
  // The caller just reloaded this rank's state; it is a survivor for every
  // subsequent epoch summary.
  survivor_ = true;
}

RestoreStats SelfCheckpoint::restore(CommCtx ctx) {
  require_open();
  SKT_SPAN("ckpt.restore");
  ctx.group.failpoint("ckpt.restore");

  EpochSummary global;
  std::vector<int> missing;
  {
    SKT_SPAN("ckpt.restore.agree");
    const Header mine = load_header(header_);
    global = summarize_epochs(ctx.world, survivor_, mine.bc_epoch, mine.d_epoch);
    missing = missing_members(ctx.group, survivor_);
  }
  if (static_cast<int>(missing.size()) > coder_->max_failures()) {
    throw Unrecoverable("self-checkpoint: " + std::to_string(missing.size()) +
                        " members lost in one group; the degree-" +
                        std::to_string(coder_->max_failures()) +
                        " erasure code cannot recover");
  }

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

  RestoreStats stats;
  stats.epoch = target;
  util::WallTimer timer;

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
    Header h = load_or_init(header_, params_.data_bytes, params_.user_bytes,
                            static_cast<std::uint32_t>(ctx.group.size()), codec_field());
    h.bc_epoch = target;
    h.d_epoch = target;
    store_header(header_, h);
    survivor_ = true;
    // work == B (== S) everywhere now, so nothing is dirty.
    tracker_.clear();
    staged_runs_.clear();
  }

  stats.rebuild_s = timer.seconds();
  stats.rebuilt_member =
      std::find(missing.begin(), missing.end(), ctx.group.rank()) != missing.end();
  ctx.group.record_time("recover", stats.rebuild_s);
  {
    SKT_SPAN("ckpt.restore.barrier");
    ctx.world.barrier();
  }
  return stats;
}

std::size_t SelfCheckpoint::memory_bytes() const {
  if (!work_) return 0;
  // work (A1+B2) + B + C + D + [S] + A2 + header
  return work_->size() + ckpt_b_->size() + check_c_->size() + check_d_->size() +
         (stage_ ? stage_->size() : 0) + user_.size() + sizeof(Header);
}

std::uint64_t SelfCheckpoint::committed_epoch() const {
  if (!header_) return 0;
  const Header h = load_header(header_);
  return h.valid() ? std::max(h.bc_epoch, h.d_epoch) : 0;
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

int SelfCheckpoint::max_failures() const {
  return coder_ ? coder_->max_failures() : params_.parity_degree;
}

}  // namespace skt::ckpt
