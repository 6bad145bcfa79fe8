#include "ckpt/blcr_checkpoint.hpp"

#include <cstring>
#include <stdexcept>

#include "storage/vault.hpp"
#include "telemetry/trace.hpp"
#include "util/clock.hpp"

namespace skt::ckpt {

BlcrCheckpoint::BlcrCheckpoint(FactoryParams params)
    : params_(std::move(params)) {
  if (params_.data_bytes == 0) throw std::invalid_argument("BlcrCheckpoint: data_bytes == 0");
  if (params_.user_bytes == 0) throw std::invalid_argument("BlcrCheckpoint: user_bytes == 0");
  if (params_.vault == nullptr) throw std::invalid_argument("BlcrCheckpoint: vault required");
  app_.assign(params_.data_bytes, std::byte{0});
  user_.assign(params_.user_bytes, std::byte{0});
  if (params_.async_staging) {
    stage_.assign(params_.data_bytes + params_.user_bytes, std::byte{0});
  }
}

std::string BlcrCheckpoint::image_key(std::uint64_t epoch) const {
  return params_.key_prefix + ".r" + std::to_string(world_rank_) + ".blcr.img.e" +
         std::to_string(epoch);
}

std::string BlcrCheckpoint::newest_key() const {
  return params_.key_prefix + ".r" + std::to_string(world_rank_) + ".blcr.newest";
}

void BlcrCheckpoint::require_open() const {
  if (world_rank_ < 0) throw std::logic_error("BlcrCheckpoint: open() has not been called");
}

bool BlcrCheckpoint::open(CommCtx ctx) {
  world_rank_ = ctx.group.world_rank();
  const std::size_t combined = params_.data_bytes + params_.user_bytes;
  tracker_.reset(params_.data_bytes, params_.user_bytes, kStripeBytes,
                 (combined + kStripeBytes - 1) / kStripeBytes);
  // Find this rank's newest image on disk (disk survives node loss).
  std::uint64_t mine = 0;
  if (const auto blob = params_.vault->get(newest_key());
      blob.has_value() && blob->size() == sizeof(mine)) {
    std::memcpy(&mine, blob->data(), sizeof(mine));
  }
  epoch_ = mine >= 1 && params_.vault->exists(image_key(mine)) ? mine : 0;
  const std::uint64_t newest = ctx.world.allreduce_value<std::uint64_t>(epoch_, mpi::Max{});
  return newest >= 1;
}

std::span<std::byte> BlcrCheckpoint::data() {
  require_open();
  return app_;
}

std::span<std::byte> BlcrCheckpoint::user_state() { return user_; }

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
    copy_combined(app_, user_, enc::run_bytes(run, kStripeBytes), stage_.data());
  }
  tracker_.clear();
  return timer.seconds();
}

std::span<const std::byte> BlcrCheckpoint::staged() const { return stage_; }

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

  std::vector<std::byte> image(app_.size() + user_.size());
  if (async) {
    std::memcpy(image.data(), stage_.data(), image.size());
    tracker_.account(staged_runs_, stats);
  } else {
    std::memcpy(image.data(), app_.data(), app_.size());
    std::memcpy(image.data() + app_.size(), user_.data(), user_.size());
    tracker_.mark_user_tail();
    tracker_.account(tracker_.runs(), stats);
    tracker_.clear();
  }
  ctx.group.failpoint(async ? "ckpt.async_mid_update" : "ckpt.mid_update");

  util::WallTimer timer;
  {
    SKT_SPAN("ckpt.flush");
    params_.vault->put(image_key(stats.epoch), image);
    // Written after the image, so it only ever names a complete one.
    params_.vault->put(newest_key(), std::as_bytes(std::span(&stats.epoch, 1)));
    stats.device_s = params_.vault->write_seconds(image.size());
    ctx.group.charge_virtual(stats.device_s);
  }
  stats.flush_s = timer.seconds();
  ctx.group.failpoint(async ? "ckpt.async_flushed" : "ckpt.flushed");

  // Garbage-collect the grandparent image; parent is kept so a failure
  // during the next write still has a complete fallback.
  if (stats.epoch >= 2) params_.vault->remove(image_key(stats.epoch - 2));

  epoch_.store(stats.epoch, std::memory_order_release);
  stats.checkpoint_bytes = image.size();
  // Measured time only: the vault's modeled write stays in device_s.
  if (!async) ctx.group.record_time("checkpoint", stats.flush_s);
  ctx.world.barrier();
  return stats;
}

RestoreStats BlcrCheckpoint::restore(CommCtx ctx) {
  require_open();
  SKT_SPAN("ckpt.restore");
  ctx.group.failpoint("ckpt.restore");

  // The restart set is the newest epoch every rank has on disk.
  const std::uint64_t target = ctx.world.allreduce_value<std::uint64_t>(epoch_, mpi::Min{});
  if (target == 0) {
    throw Unrecoverable("blcr: some rank has no checkpoint image on disk");
  }

  RestoreStats stats;
  stats.epoch = target;
  util::WallTimer timer;
  const auto image = params_.vault->get(image_key(target));
  if (!image.has_value() || image->size() != app_.size() + user_.size()) {
    throw Unrecoverable("blcr: image for epoch " + std::to_string(target) + " missing/corrupt");
  }
  stats.device_s = params_.vault->read_seconds(image->size());
  ctx.group.charge_virtual(stats.device_s);
  std::memcpy(app_.data(), image->data(), app_.size());
  std::memcpy(user_.data(), image->data() + app_.size(), user_.size());
  if (params_.async_staging) std::memcpy(stage_.data(), image->data(), stage_.size());
  tracker_.clear();
  epoch_ = target;

  stats.rebuild_s = timer.seconds();
  ctx.group.record_time("recover", stats.rebuild_s);
  ctx.world.barrier();
  return stats;
}

std::size_t BlcrCheckpoint::memory_bytes() const {
  return app_.size() + user_.size() + stage_.size();  // images live on disk
}

std::uint64_t BlcrCheckpoint::committed_epoch() const {
  return epoch_.load(std::memory_order_acquire);
}

}  // namespace skt::ckpt
