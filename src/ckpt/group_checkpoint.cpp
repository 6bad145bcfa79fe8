#include "ckpt/group_checkpoint.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/trace.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"

namespace skt::ckpt {

GroupCheckpoint::GroupCheckpoint(FactoryParams params, const char* tag)
    : params_(std::move(params)), tag_(tag) {
  const std::string name = std::string(tag_) + "-checkpoint: ";
  if (params_.data_bytes == 0) throw std::invalid_argument(name + "data_bytes == 0");
  if (params_.user_bytes == 0) throw std::invalid_argument(name + "user_bytes == 0");
  if (params_.level2_flush_every > 0 && params_.vault == nullptr) {
    throw std::invalid_argument(name + "level 2 needs a vault");
  }
  combined_bytes_ = params_.data_bytes + params_.user_bytes;
  user_.assign(params_.user_bytes, std::byte{0});
}

std::string GroupCheckpoint::key(const std::string& part) const {
  return params_.key_prefix + ".r" + std::to_string(world_rank_) + "." + tag_ + "." + part;
}

std::uint32_t GroupCheckpoint::codec_field() const {
  return static_cast<std::uint32_t>(params_.codec) |
         static_cast<std::uint32_t>(params_.parity_degree) << 8;
}

void GroupCheckpoint::require_open() const {
  if (!header_) {
    throw std::logic_error(std::string(tag_) + "-checkpoint: open() has not been called");
  }
}

Header GroupCheckpoint::header_or_init() const {
  return load_or_init(header_, params_.data_bytes, params_.user_bytes,
                      static_cast<std::uint32_t>(group_size_), codec_field());
}

bool GroupCheckpoint::open(CommCtx ctx) {
  world_rank_ = ctx.group.world_rank();
  group_size_ = ctx.group.size();
  coder_.emplace(params_.codec, combined_bytes_, group_size_, params_.parity_degree);

  sim::PersistentStore& store = ctx.group.store();
  const std::string hdr_key = key("hdr");
  survivor_ = false;
  if (sim::SegmentPtr existing = store.attach(hdr_key); existing != nullptr) {
    const Header h = load_header(existing);
    if (h.valid()) {
      // A survivor's segments must match these parameters byte for byte:
      // a rebuild would otherwise combine checksums of one code with the
      // arithmetic of another.
      if (h.data_bytes != params_.data_bytes || h.user_bytes != params_.user_bytes ||
          h.group_size != static_cast<std::uint32_t>(group_size_) ||
          h.codec != codec_field()) {
        throw std::logic_error(std::string(tag_) +
                               "-checkpoint: existing checkpoint layout mismatch");
      }
      survivor_ = true;
    }
  }

  tracker_.reset(params_.data_bytes, params_.user_bytes, coder_->stripe_bytes(),
                 coder_->stripe_count());
  create_segments(store);
  header_ = store.create(hdr_key, sizeof(Header), params_.owner);

  const Header mine = load_header(header_);
  const EpochSummary global =
      summarize_epochs(ctx.world, survivor_, mine.bc_epoch, mine.d_epoch);
  // A committed checkpoint exists iff some survivor published at least
  // one epoch, or every rank holds a disk generation.
  bool committed = std::max(epoch_of(global.bc_max), epoch_of(global.d_max)) >= 1;
  if (!global.any_survivor) {
    // Globally fresh start: every rank initializes an epoch-0 header.
    // A blank node joining a job that has survivors must NOT write one —
    // it would masquerade as an epoch-0 survivor if a second failure hits
    // before its restore completes.
    store_header(header_, header_or_init());
    survivor_ = true;
  }
  if (params_.level2_flush_every > 0) {
    disk_.emplace(*params_.vault, params_.key_prefix + ".r" + std::to_string(world_rank_) + ".L2");
    if (disk_->agree(ctx.world) >= 1) committed = true;
  }
  return committed;
}

double GroupCheckpoint::stage() {
  require_open();
  if (!params_.async_staging) {
    throw std::logic_error(std::string(tag_) + "-checkpoint: stage() without async_staging");
  }
  SKT_SPAN("ckpt.stage");
  util::WallTimer timer;
  stage_dirty();
  return timer.seconds();
}

CommitStats GroupCheckpoint::commit(CommCtx ctx) {
  require_open();
  // With staging enabled even a synchronous commit snapshots through the
  // staging buffer, so the recovery-set rule and the staging buffer's
  // dirty mirror never depend on which pipeline the commit used.
  if (params_.async_staging) stage();
  return commit_frame(ctx, /*async=*/false);
}

CommitStats GroupCheckpoint::commit_staged(CommCtx ctx) {
  require_open();
  if (!params_.async_staging) {
    throw std::logic_error(std::string(tag_) +
                           "-checkpoint: commit_staged() without async_staging");
  }
  return commit_frame(ctx, /*async=*/true);
}

CommitStats GroupCheckpoint::commit_frame(CommCtx ctx, bool async, bool level2) {
  SKT_SPAN("ckpt.commit");
  Commit c{.ctx = ctx, .async = async, .header = header_or_init()};
  // Agree on the epoch globally: after a level-2 disk restore a
  // replacement's header may lag the survivors'.
  c.stats.epoch = ctx.world.allreduce_value<std::uint64_t>(
                      std::max(epoch_of(c.header.bc_epoch), epoch_of(c.header.d_epoch)),
                      mpi::Max{}) +
                  1;

  ctx.group.failpoint(async ? "ckpt.async_begin" : "ckpt.begin");
  ctx.world.barrier();
  telemetry::set_epoch(c.stats.epoch);

  commit_steps(c);

  store_header(header_, c.header);
  ctx.group.failpoint(async ? "ckpt.async_flushed" : "ckpt.flushed");
  ctx.world.barrier();

  if (disk_ && level2 && ++commits_since_flush_ >= params_.level2_flush_every) {
    commits_since_flush_ = 0;
    SKT_SPAN("ckpt.l2_flush");
    ctx.group.failpoint(async ? "ckpt.async_l2_flush" : "ckpt.l2_flush");
    c.stats.device_s = disk_->write(c.stats.epoch, c.sealed);
    ctx.group.charge_virtual(c.stats.device_s);
    ctx.world.barrier();
  }

  tracker_.account(c.dirty, c.stats);
  // The flush copies exactly the dirty runs into the checkpoint copy.
  c.stats.checkpoint_bytes = c.stats.dirty_bytes;
  c.stats.checksum_bytes = coder_->redundancy_bytes();
  // The async worker's pipeline time is recorded as "ckpt_worker" by the
  // Session; only a synchronous commit charges the critical-path slot, and
  // only with measured time (encode_virtual_s is modeled).
  if (!async) ctx.group.record_time("checkpoint", c.stats.encode_s + c.stats.flush_s);
  return c.stats;
}

std::vector<enc::BlockRun> GroupCheckpoint::encode(Commit& c, std::span<const std::byte> base,
                                                   std::span<const std::byte> next,
                                                   std::span<std::byte> redundancy) {
  // Counted on the encode's own handle: on an async worker the rank
  // thread keeps communicating on its own handles meanwhile.
  const double network_before = c.ctx.group.network_seconds();
  const std::uint64_t sent_before = c.ctx.group.sent_bytes();
  util::WallTimer timer;
  std::vector<enc::BlockRun> changed;
  {
    SKT_SPAN("ckpt.encode");
    changed = coder_->encode_delta(c.ctx.group, base, next, redundancy, c.dirty);
  }
  c.stats.encode_s = timer.seconds();
  c.stats.encode_virtual_s = c.ctx.group.network_seconds() - network_before;
  c.encode_sent_bytes = c.ctx.group.sent_bytes() - sent_before;
  c.ctx.group.failpoint(c.async ? "ckpt.async_encode_done" : "ckpt.encode_done");
  return changed;
}

void GroupCheckpoint::encode_barrier(Commit& c) {
  // A world sum of every rank's encode bytes, which synchronizes like a
  // barrier: no rank leaves it before every rank has entered it.
  c.stats.encode_wire_bytes =
      c.ctx.world.allreduce_value<std::uint64_t>(c.encode_sent_bytes, mpi::Sum{});
}

RestoreStats GroupCheckpoint::restore(CommCtx ctx) {
  require_open();
  if (!disk_) return restore_level1(ctx);
  // Member loss is a per-group verdict, but a disk rollback changes the
  // restored epoch, so whether to try level 1 at all is decided world-wide
  // before anyone restores: a group that could rebuild locally still rolls
  // back with everyone else, or the job would resume on two epochs.
  const bool feasible = static_cast<int>(missing_members(ctx.group, survivor_).size()) <=
                        coder_->max_failures();
  if (ctx.world.allreduce_value<std::uint64_t>(feasible ? 1 : 0, mpi::Min{}) != 0) {
    try {
      return restore_level1(ctx);
    } catch (const Unrecoverable& e) {
      // Reachable only by world-uniform verdicts (epoch disagreement, no
      // committed generation): every rank lands here together.
      SKT_LOG_WARN("level 2: level 1 unrecoverable ({}); trying the disk", e.what());
    }
  } else {
    SKT_LOG_WARN("level 2: a group lost more members than level 1 absorbs; "
                 "rolling every group back to the disk generation");
  }
  return restore_from_disk(ctx);
}

RestoreStats GroupCheckpoint::restore_from_disk(CommCtx ctx) {
  SKT_SPAN("ckpt.l2_restore");
  const std::uint64_t target = disk_->agree(ctx.world);
  if (target == 0) {
    throw Unrecoverable(std::string(tag_) + "-checkpoint: no complete disk generation either");
  }
  util::WallTimer timer;
  RestoreStats stats;
  stats.epoch = target;
  stats.device_s = disk_->read(target, data(), user_);
  ctx.group.charge_virtual(stats.device_s);
  // Re-establish level-1 redundancy at once, outside the level-2 cadence,
  // so the next failure is cheap again. Commits agree on Max(epoch) + 1
  // world-wide and survivors' headers still carry their pre-rollback
  // epochs, so the strategy reseeds first.
  reseed(target - 1);
  if (params_.async_staging) stage();
  commit_frame(ctx, /*async=*/false, /*level2=*/false);
  stats.rebuild_s = timer.seconds();
  ctx.group.record_time("recover", stats.rebuild_s);
  return stats;
}

RestoreStats GroupCheckpoint::restore_level1(CommCtx ctx) {
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
    throw Unrecoverable(std::string(tag_) + "-checkpoint: " + std::to_string(missing.size()) +
                        " members lost in one group; the degree-" +
                        std::to_string(coder_->max_failures()) +
                        " erasure code cannot recover");
  }

  RestoreStats stats;
  // Counted on the group handle, whose only messages in the restore steps
  // are the rebuild's.
  const double network_before = ctx.group.network_seconds();
  const std::uint64_t sent_before = ctx.group.sent_bytes();
  util::WallTimer timer;
  stats.epoch = restore_steps(ctx, global, missing);
  stats.rebuild_s = timer.seconds();
  stats.rebuild_virtual_s = ctx.group.network_seconds() - network_before;
  const std::uint64_t sent = ctx.group.sent_bytes() - sent_before;
  stats.rebuilt_member =
      std::find(missing.begin(), missing.end(), ctx.group.rank()) != missing.end();
  ctx.group.record_time("recover", stats.rebuild_s);
  {
    SKT_SPAN("ckpt.restore.barrier");
    // A world sum of every rank's rebuild bytes, which synchronizes like a
    // barrier: no rank leaves it before every rank has entered it.
    stats.rebuild_wire_bytes = ctx.world.allreduce_value<std::uint64_t>(sent, mpi::Sum{});
  }
  return stats;
}

std::uint64_t GroupCheckpoint::committed_epoch() const {
  if (!header_) return 0;
  const Header h = load_header(header_);
  return h.valid() ? std::max(epoch_of(h.bc_epoch), epoch_of(h.d_epoch)) : 0;
}

int GroupCheckpoint::max_failures() const {
  return coder_ ? coder_->max_failures() : params_.parity_degree;
}

}  // namespace skt::ckpt
