#include "ckpt/paired_checkpoint.hpp"

#include <cstring>
#include <stdexcept>

#include "telemetry/trace.hpp"
#include "util/clock.hpp"

namespace skt::ckpt {
namespace {

FactoryParams pair_params(FactoryParams params, Strategy strategy) {
  if (strategy != Strategy::kSingle && strategy != Strategy::kDouble) {
    throw std::invalid_argument("PairedCheckpoint: strategy must be single or double");
  }
  // Single stays the paper's single-parity layout (Fig. 2).
  if (strategy == Strategy::kSingle) params.parity_degree = 1;
  return params;
}

}  // namespace

PairedCheckpoint::PairedCheckpoint(FactoryParams params, Strategy strategy)
    : GroupCheckpoint(pair_params(std::move(params), strategy),
                      strategy == Strategy::kSingle ? "single" : "double"),
      strategy_(strategy),
      pairs_(strategy == Strategy::kSingle ? 1 : 2),
      pair_dirty_(pairs_),
      ckpt_(pairs_),
      check_(pairs_) {
  app_.assign(params_.data_bytes, std::byte{0});
}

void PairedCheckpoint::create_segments(sim::PersistentStore& store) {
  if (params_.async_staging) image_.assign(coder_->padded_bytes(), std::byte{0});
  // Until a commit establishes the pair-content invariant, every block of
  // every pair must be treated as stale.
  for (enc::RunSet& pair : pair_dirty_) {
    pair = enc::RunSet(coder_->stripe_bytes(), coder_->stripe_count());
    pair.add_all();
  }
  for (std::size_t p = 0; p < pairs_; ++p) {
    const std::string n = std::to_string(p);
    ckpt_[p] = store.create(key("B" + n), coder_->padded_bytes(), params_.owner);
    check_[p] = store.create(key("C" + n), coder_->redundancy_bytes(), params_.owner);
  }
}

std::span<std::byte> PairedCheckpoint::data() {
  require_open();
  return app_;
}

std::vector<enc::BlockRun> PairedCheckpoint::fold_dirty() {
  // The user-state tail is part of every snapshot.
  tracker_.mark_user_tail();
  std::vector<enc::BlockRun> runs = tracker_.runs();
  for (enc::RunSet& pair : pair_dirty_) pair.add(runs);
  tracker_.clear();
  return runs;
}

void PairedCheckpoint::stage_dirty() {
  // image_ equals the working content as of the previous stage() on every
  // clean block, so only the runs dirtied since then need copying.
  for (const enc::BlockRun& run : fold_dirty()) {
    copy_combined(app_, user_, enc::run_bytes(run, tracker_.stripe_bytes()), image_.data());
  }
}

void PairedCheckpoint::commit_steps(Commit& c) {
  // Epoch e lives in pair e % pairs: with two pairs the commit always
  // overwrites the older pair and the newer one stays intact throughout.
  const std::size_t target = c.stats.epoch % pairs_;

  // Staged commits snapshotted (runs + image) in stage(); synchronous
  // ones fold the live runs here.
  const bool staging = params_.async_staging;
  if (!staging) fold_dirty();
  c.dirty = pair_dirty_[target].runs();

  // Mark the update window: from here until the publication below, the
  // target pair is not a trustworthy (checkpoint, checksum) pair, and the
  // mark outlives this process if a failure interrupts the commit.
  c.header.slot(target) |= kWriting;
  store_header(header_, c.header);

  // Save the target pair's OLD content of the dirty runs — the delta base
  // the flush is about to overwrite. Deliberately uninitialized: the codec
  // reads the base only inside the runs (and its full-encode fallback
  // reads only `next`, the fully flushed pair).
  const std::span<std::byte> pair = ckpt_[target]->bytes();
  util::AlignedBuffer base(pair.size());
  util::WallTimer flush_timer;
  {
    SKT_SPAN("ckpt.flush");
    for (const enc::BlockRun& run : c.dirty) {
      const enc::ByteRange r = enc::run_bytes(run, tracker_.stripe_bytes());
      std::memcpy(base.data() + r.begin, pair.data() + r.begin, r.size());
      if (staging) {
        std::memcpy(pair.data() + r.begin, image_.data() + r.begin, r.size());
      } else {
        copy_combined(app_, user_, r, pair.data());
      }
    }
  }
  c.stats.flush_s = flush_timer.seconds();
  c.ctx.group.failpoint(c.async ? "ckpt.async_mid_update" : "ckpt.mid_update");

  encode(c, {base.data(), base.size()}, pair, check_[target]->bytes());
  pair_dirty_[target].clear();

  // Global barrier before publication: no rank may declare the new pair
  // committed until every rank finished writing it.
  encode_barrier(c);
  c.header.slot(target) = c.stats.epoch;
  c.sealed = std::span<const std::byte>(pair).first(combined_bytes_);
}

std::uint64_t PairedCheckpoint::restore_steps(CommCtx ctx, const EpochSummary& global,
                                              std::span<const int> missing) {
  // A pair is usable when its slot is uniform across survivors, at least
  // 1 and not being written. Take the newest usable one. For single, a
  // failure inside the update window leaves none (CASE 2 of Fig. 2).
  std::size_t pair = pairs_;  // none yet
  std::uint64_t target = 0;
  for (std::size_t p = 0; p < pairs_; ++p) {
    const std::uint64_t lo = p == 0 ? global.bc_min : global.d_min;
    const std::uint64_t hi = p == 0 ? global.bc_max : global.d_max;
    if (lo == hi && hi >= 1 && (hi & kWriting) == 0 && hi > target) {
      pair = p;
      target = hi;
    }
  }
  if (pair == pairs_) {
    throw Unrecoverable(std::string(to_string(strategy_)) +
                        ": no complete (checkpoint, checksum) pair to restore; a failure "
                        "inside the update window tears the pair it writes (CASE 2 of Fig. 2)");
  }
  const sim::SegmentPtr& image = ckpt_[pair];

  if (!missing.empty()) {
    SKT_SPAN("ckpt.restore.rebuild");
    coder_->rebuild(ctx.group, missing, image->bytes(), check_[pair]->bytes());
  }
  {
    SKT_SPAN("ckpt.restore.reload");
    std::memcpy(app_.data(), image->bytes().data(), app_.size());
    std::memcpy(user_.data(), image->bytes().data() + app_.size(), user_.size());

    // Re-establish the dirty-accumulation invariants: the staging image (if
    // any) mirrors the restored pair exactly, the other pair's content is
    // unknown (a rebuilt member's is zeros), and nothing is dirty relative
    // to the snapshot.
    if (!image_.empty()) std::memcpy(image_.data(), image->bytes().data(), image_.size());
    for (std::size_t p = 0; p < pairs_; ++p) {
      if (p == pair) {
        pair_dirty_[p].clear();
      } else {
        pair_dirty_[p].add_all();
      }
    }
    tracker_.clear();

    // A survivor keeps its header, including another pair's kWriting mark
    // until that pair publishes. A rebuilt member only holds the restored
    // pair; its other pair reads epoch 0 until the next commit overwrites
    // it, which the newest-usable-pair rule tolerates.
    if (!survivor_) {
      Header h = header_or_init();
      h.slot(pair) = target;
      store_header(header_, h);
    }
    survivor_ = true;
  }
  return target;
}

std::size_t PairedCheckpoint::memory_bytes() const {
  if (!header_) return 0;
  std::size_t total = app_.size() + user_.size() + image_.size() + sizeof(Header);
  for (std::size_t p = 0; p < pairs_; ++p) total += ckpt_[p]->size() + check_[p]->size();
  return total;
}

std::vector<ScrubRegion> PairedCheckpoint::scrub_view() {
  require_open();
  // The pairs hold different epochs, so no segment has a byte-identical
  // twin: corruption is detectable, repair needs the group.
  std::vector<ScrubRegion> regions;
  for (std::size_t p = 0; p < pairs_; ++p) {
    regions.push_back({"B" + std::to_string(p), ckpt_[p]->bytes(), {}});
  }
  for (std::size_t p = 0; p < pairs_; ++p) {
    regions.push_back({"C" + std::to_string(p), check_[p]->bytes(), {}});
  }
  return regions;
}

}  // namespace skt::ckpt
