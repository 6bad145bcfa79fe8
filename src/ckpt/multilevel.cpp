#include "ckpt/multilevel.hpp"

#include <cstring>
#include <stdexcept>

#include "storage/vault.hpp"
#include "telemetry/trace.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"

namespace skt::ckpt {

MultiLevelCheckpoint::MultiLevelCheckpoint(Params params)
    : params_(std::move(params)) {
  if (params_.vault == nullptr) {
    throw std::invalid_argument("MultiLevelCheckpoint: vault required");
  }
  if (params_.level1 == Strategy::kNone || params_.level1 == Strategy::kBlcr) {
    throw std::invalid_argument("MultiLevelCheckpoint: level 1 must be an in-memory strategy");
  }
  // Composition through the SPI: the level-1 protocol is built with the
  // same make_protocol entry point a Session uses, under a nested key
  // prefix so its store segments never collide with a sibling instance.
  FactoryParams inner = params_;
  inner.key_prefix += ".L1";
  inner_ = make_protocol(params_.level1, inner);
}

std::string MultiLevelCheckpoint::image_key(std::uint64_t epoch) const {
  return params_.key_prefix + ".r" + std::to_string(world_rank_) + ".L2.img.e" +
         std::to_string(epoch);
}

bool MultiLevelCheckpoint::open(CommCtx ctx) {
  world_rank_ = ctx.group.world_rank();
  const bool mem = inner_->open(ctx);
  disk_epoch_ = newest_disk_epoch();
  const std::uint64_t newest_disk =
      ctx.world.allreduce_value<std::uint64_t>(disk_epoch_, mpi::Min{});
  return mem || newest_disk >= 1;
}

std::string MultiLevelCheckpoint::manifest_key() const {
  return params_.key_prefix + ".r" + std::to_string(world_rank_) + ".L2.manifest";
}

MultiLevelCheckpoint::Manifest MultiLevelCheckpoint::load_manifest() const {
  const auto blob = params_.vault->get(manifest_key());
  Manifest manifest;
  if (blob.has_value() && blob->size() == sizeof(Manifest)) {
    std::memcpy(&manifest, blob->data(), sizeof(Manifest));
  }
  return manifest;
}

void MultiLevelCheckpoint::store_manifest(const Manifest& manifest) {
  params_.vault->put(manifest_key(),
                     std::span<const std::byte>(
                         reinterpret_cast<const std::byte*>(&manifest), sizeof(Manifest)));
}

std::uint64_t MultiLevelCheckpoint::newest_disk_epoch() const {
  const Manifest manifest = load_manifest();
  // Trust the manifest only as far as the images actually exist (a torn
  // flush may have written the image but not the manifest, or vice versa).
  if (manifest.newest >= 1 && params_.vault->exists(image_key(manifest.newest))) {
    return manifest.newest;
  }
  if (manifest.previous >= 1 && params_.vault->exists(image_key(manifest.previous))) {
    return manifest.previous;
  }
  return 0;
}

std::span<std::byte> MultiLevelCheckpoint::data() { return inner_->data(); }

std::span<std::byte> MultiLevelCheckpoint::user_state() { return inner_->user_state(); }

CommitStats MultiLevelCheckpoint::commit(CommCtx ctx) {
  return commit_impl(ctx, inner_->commit(ctx), /*from_staged=*/false);
}

CommitStats MultiLevelCheckpoint::commit_staged(CommCtx ctx) {
  // The async worker must not touch the live working buffer, so the
  // level-2 flush reads the staged image the level-1 commit just encoded.
  return commit_impl(ctx, inner_->commit_staged(ctx), /*from_staged=*/true);
}

CommitStats MultiLevelCheckpoint::commit_impl(CommCtx ctx, CommitStats stats,
                                              bool from_staged) {
  if (params_.flush_every > 0 && ++commits_since_flush_ >= params_.flush_every) {
    commits_since_flush_ = 0;
    stats.device_s = flush_to_disk(ctx, stats.epoch, from_staged);
  }
  return stats;
}

double MultiLevelCheckpoint::flush_to_disk(CommCtx ctx, std::uint64_t epoch,
                                           bool from_staged) {
  SKT_SPAN("ckpt.l2_flush");
  ctx.group.failpoint(from_staged ? "ckpt.async_l2_flush" : "ckpt.l2_flush");
  std::vector<std::byte> image(params_.data_bytes + params_.user_bytes);
  if (from_staged) {
    const std::span<const std::byte> staged = inner_->staged();
    std::memcpy(image.data(), staged.data(), image.size());
  } else {
    std::memcpy(image.data(), inner_->data().data(), params_.data_bytes);
    std::memcpy(image.data() + params_.data_bytes, inner_->user_state().data(),
                params_.user_bytes);
  }
  params_.vault->put(image_key(epoch), image);
  const double device_s = params_.vault->write_seconds(image.size());
  ctx.group.charge_virtual(device_s);

  // Retain two generations so a torn flush always leaves one complete
  // generation on every rank; GC the grandparent only.
  Manifest manifest = load_manifest();
  if (manifest.previous >= 1) params_.vault->remove(image_key(manifest.previous));
  manifest.previous = manifest.newest;
  manifest.newest = epoch;
  store_manifest(manifest);

  disk_epoch_.store(epoch, std::memory_order_release);
  flushes_.fetch_add(1, std::memory_order_acq_rel);
  // A disk generation is only usable if every rank finished writing it.
  ctx.world.barrier();
  return device_s;
}

RestoreStats MultiLevelCheckpoint::restore(CommCtx ctx) {
  used_disk_ = false;
  // Level-1 recoverability is a PER-GROUP verdict (did THIS group lose
  // more members than its code absorbs?), but a disk rollback changes the
  // restored epoch — so whether to attempt level 1 at all must be decided
  // unanimously, BEFORE anyone restores. A group that could rebuild
  // locally still rolls back with everyone else: letting it keep its
  // level-1 epoch while other groups reload an older disk generation
  // would resume the job on two different epochs (and desynchronise the
  // world collectives inside restore()).
  const std::uint64_t all_feasible = ctx.world.allreduce_value<std::uint64_t>(
      inner_->restore_feasible(ctx) ? 1u : 0u, mpi::Min{});
  if (all_feasible != 0) {
    try {
      return inner_->restore(ctx);
    } catch (const Unrecoverable& e) {
      // Reachable only by world-uniform verdicts (epoch disagreement, no
      // committed generation): every rank lands here together.
      SKT_LOG_WARN("multi-level: level 1 unrecoverable ({}); trying disk level", e.what());
    }
  } else {
    SKT_LOG_WARN(
        "multi-level: a group lost more members than level 1 absorbs; "
        "rolling every group back to the disk generation");
  }
  // Level 2: agree on the newest epoch present on every rank's disk.
  SKT_SPAN("ckpt.l2_restore");
  const std::uint64_t target =
      ctx.world.allreduce_value<std::uint64_t>(newest_disk_epoch(), mpi::Min{});
  if (target == 0) {
    throw Unrecoverable("multi-level: no complete disk generation either");
  }
  util::WallTimer timer;
  const auto image = params_.vault->get(image_key(target));
  if (!image.has_value() ||
      image->size() != params_.data_bytes + params_.user_bytes) {
    throw Unrecoverable("multi-level: disk image corrupt for epoch " + std::to_string(target));
  }
  std::memcpy(inner_->data().data(), image->data(), params_.data_bytes);
  std::memcpy(inner_->user_state().data(), image->data() + params_.data_bytes,
              params_.user_bytes);
  RestoreStats stats;
  stats.epoch = target;
  stats.device_s = params_.vault->read_seconds(image->size());
  ctx.group.charge_virtual(stats.device_s);

  // Re-establish level-1 redundancy immediately: the restored data gets a
  // fresh in-memory checkpoint so the next failure is cheap again. Reseed
  // the epoch counters first so this commit re-mints exactly `target`
  // (commits agree on Max(epoch)+1 world-wide, and survivors' headers
  // still carry their pre-rollback epochs) — the epoch counter stays in
  // lock-step with the application's progress counter across rollbacks.
  inner_->reseed_epoch(ctx, target - 1);
  inner_->commit(ctx);

  stats.rebuild_s = timer.seconds();
  used_disk_ = true;
  disk_epoch_.store(target, std::memory_order_release);
  ctx.group.record_time("recover", stats.rebuild_s);
  return stats;
}

std::size_t MultiLevelCheckpoint::memory_bytes() const { return inner_->memory_bytes(); }

std::uint64_t MultiLevelCheckpoint::committed_epoch() const {
  return std::max(inner_->committed_epoch(), disk_epoch_.load(std::memory_order_acquire));
}

}  // namespace skt::ckpt
