#include "ckpt/blcr_checkpoint.hpp"

#include <stdexcept>

#include "telemetry/trace.hpp"
#include "util/clock.hpp"

namespace skt::ckpt {

BlcrCheckpoint::BlcrCheckpoint(FactoryParams params)
    : params_(std::move(params)) {
  if (params_.data_bytes == 0) throw std::invalid_argument("BlcrCheckpoint: data_bytes == 0");
  if (params_.user_bytes == 0) throw std::invalid_argument("BlcrCheckpoint: user_bytes == 0");
  if (params_.vault == nullptr) throw std::invalid_argument("BlcrCheckpoint: vault required");
  image_.assign(params_.data_bytes + params_.user_bytes, std::byte{0});
  if (params_.async_staging) stage_.assign(image_.size(), std::byte{0});
}

void BlcrCheckpoint::require_open() const {
  if (!images_) throw std::logic_error("BlcrCheckpoint: open() has not been called");
}

bool BlcrCheckpoint::open(CommCtx ctx) {
  tracker_.reset(params_.data_bytes, params_.user_bytes, kStripeBytes,
                 (image_.size() + kStripeBytes - 1) / kStripeBytes);
  // Find this rank's newest image on disk (disk survives node loss).
  images_.emplace(*params_.vault,
                  params_.key_prefix + ".r" + std::to_string(ctx.group.world_rank()) + ".blcr");
  epoch_ = images_->newest();
  const std::uint64_t newest = ctx.world.allreduce_value<std::uint64_t>(epoch_, mpi::Max{});
  return newest >= 1;
}

std::span<std::byte> BlcrCheckpoint::data() {
  require_open();
  return std::span(image_).first(params_.data_bytes);
}

std::span<std::byte> BlcrCheckpoint::user_state() {
  return std::span(image_).subspan(params_.data_bytes);
}

double BlcrCheckpoint::stage() {
  require_open();
  if (!params_.async_staging) {
    throw std::logic_error("BlcrCheckpoint: stage() without async_staging");
  }
  SKT_SPAN("ckpt.stage");
  util::WallTimer timer;
  // stage_ equals [A|A2] as of the previous stage() on every clean block,
  // so only the runs dirtied since then need copying.
  tracker_.mark_user_tail();
  staged_runs_ = tracker_.runs();
  for (const enc::BlockRun& run : staged_runs_) {
    copy_combined(image_, {}, enc::run_bytes(run, kStripeBytes), stage_.data());
  }
  tracker_.clear();
  return timer.seconds();
}

CommitStats BlcrCheckpoint::commit(CommCtx ctx) {
  require_open();
  return commit_impl(ctx, /*async=*/false);
}

CommitStats BlcrCheckpoint::commit_staged(CommCtx ctx) {
  require_open();
  if (!params_.async_staging) {
    throw std::logic_error("BlcrCheckpoint: commit_staged() without async_staging");
  }
  return commit_impl(ctx, /*async=*/true);
}

CommitStats BlcrCheckpoint::commit_impl(CommCtx ctx, bool async) {
  SKT_SPAN("ckpt.commit");
  ctx.group.failpoint(async ? "ckpt.async_begin" : "ckpt.begin");
  ctx.world.barrier();

  CommitStats stats;
  stats.epoch = epoch_.load(std::memory_order_relaxed) + 1;
  telemetry::set_epoch(stats.epoch);

  if (async) {
    tracker_.account(staged_runs_, stats);
  } else {
    tracker_.mark_user_tail();
    tracker_.account(tracker_.runs(), stats);
    tracker_.clear();
  }
  ctx.group.failpoint(async ? "ckpt.async_mid_update" : "ckpt.mid_update");

  util::WallTimer timer;
  {
    SKT_SPAN("ckpt.flush");
    stats.device_s = images_->write(stats.epoch, async ? stage_ : image_);
    ctx.group.charge_virtual(stats.device_s);
  }
  stats.flush_s = timer.seconds();
  ctx.group.failpoint(async ? "ckpt.async_flushed" : "ckpt.flushed");

  epoch_.store(stats.epoch, std::memory_order_release);
  stats.checkpoint_bytes = image_.size();
  // Measured time only: the vault's modeled write stays in device_s.
  if (!async) ctx.group.record_time("checkpoint", stats.flush_s);
  ctx.world.barrier();
  return stats;
}

RestoreStats BlcrCheckpoint::restore(CommCtx ctx) {
  require_open();
  SKT_SPAN("ckpt.restore");
  ctx.group.failpoint("ckpt.restore");

  // The restart set is the newest generation every rank has on disk.
  const std::uint64_t target = images_->agree(ctx.world);
  if (target == 0) {
    throw Unrecoverable("blcr: some rank has no checkpoint image on disk");
  }

  RestoreStats stats;
  stats.epoch = target;
  util::WallTimer timer;
  stats.device_s = images_->read(target, data(), user_state());
  ctx.group.charge_virtual(stats.device_s);
  if (params_.async_staging) stage_ = image_;
  tracker_.clear();
  epoch_ = target;

  stats.rebuild_s = timer.seconds();
  ctx.group.record_time("recover", stats.rebuild_s);
  ctx.world.barrier();
  return stats;
}

std::size_t BlcrCheckpoint::memory_bytes() const {
  return image_.size() + stage_.size();  // images live on disk
}

std::uint64_t BlcrCheckpoint::committed_epoch() const {
  return epoch_.load(std::memory_order_acquire);
}

}  // namespace skt::ckpt
