#include "ckpt/double_checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "ckpt/epoch.hpp"
#include "telemetry/trace.hpp"
#include "util/clock.hpp"

namespace skt::ckpt {

DoubleCheckpoint::DoubleCheckpoint(Params params) : params_(std::move(params)) {
  if (params_.data_bytes == 0) throw std::invalid_argument("DoubleCheckpoint: data_bytes == 0");
  if (params_.user_bytes == 0) throw std::invalid_argument("DoubleCheckpoint: user_bytes == 0");
  combined_bytes_ = params_.data_bytes + params_.user_bytes;
  app_.assign(params_.data_bytes, std::byte{0});
  user_.assign(params_.user_bytes, std::byte{0});
}

std::string DoubleCheckpoint::key(const char* part, int pair) const {
  return params_.key_prefix + ".r" + std::to_string(world_rank_) + ".double." + part +
         std::to_string(pair);
}

std::string DoubleCheckpoint::key(const char* part) const {
  return params_.key_prefix + ".r" + std::to_string(world_rank_) + ".double." + part;
}

void DoubleCheckpoint::require_open() const {
  if (!ckpt_[0]) throw std::logic_error("DoubleCheckpoint: open() has not been called");
}

bool DoubleCheckpoint::open(CommCtx ctx) {
  world_rank_ = ctx.group.world_rank();
  coder_ = enc::make_coder(params_.parity_degree, params_.codec, combined_bytes_,
                           ctx.group.size());
  const std::size_t stripes = coder_->stripe_count();
  tracker_.reset(params_.data_bytes, params_.user_bytes, coder_->stripe_bytes(), stripes);
  if (params_.async_staging) image_.assign(coder_->padded_bytes(), std::byte{0});
  // Until a commit establishes the pair-content invariant, every block of
  // both pairs must be treated as stale.
  for (enc::RunSet& pair : pair_dirty_) {
    pair = enc::RunSet(coder_->stripe_bytes(), stripes);
    pair.add_all();
  }

  sim::PersistentStore& store = ctx.group.store();
  const std::string hdr_key = key("hdr");
  survivor_ = false;
  if (sim::SegmentPtr existing = store.attach(hdr_key); existing != nullptr) {
    if (load_header(existing).valid()) survivor_ = true;
  }

  for (int p = 0; p < 2; ++p) {
    ckpt_[p] = store.create(key("B", p), coder_->padded_bytes(), params_.owner);
    check_[p] = store.create(key("C", p), coder_->redundancy_bytes(), params_.owner);
  }
  header_ = store.create(hdr_key, sizeof(Header), params_.owner);

  const Header mine = load_header(header_);
  const EpochSummary global =
      summarize_epochs(ctx.world, survivor_, mine.bc_epoch, mine.d_epoch);
  if (!global.any_survivor) {
    store_header(header_, load_or_init(header_, params_.data_bytes, params_.user_bytes,
                                       static_cast<std::uint32_t>(ctx.group.size()),
                                       static_cast<std::uint32_t>(params_.codec)));
    survivor_ = true;
    return false;
  }
  return global.bc_max >= 1 || global.d_max >= 1;
}

std::span<std::byte> DoubleCheckpoint::data() {
  require_open();
  return app_;
}

std::span<std::byte> DoubleCheckpoint::user_state() { return user_; }

std::vector<enc::BlockRun> DoubleCheckpoint::fold_dirty() {
  // The user-state tail is part of every snapshot.
  tracker_.mark_user_tail();
  std::vector<enc::BlockRun> runs = tracker_.runs();
  pair_dirty_[0].add(runs);
  pair_dirty_[1].add(runs);
  tracker_.clear();
  return runs;
}

double DoubleCheckpoint::stage() {
  require_open();
  if (!params_.async_staging) {
    throw std::logic_error("DoubleCheckpoint: stage() without async_staging");
  }
  SKT_SPAN("ckpt.stage");
  util::WallTimer timer;
  // image_ equals the working content as of the previous stage() on every
  // clean block, so only the runs dirtied since then need copying.
  for (const enc::BlockRun& run : fold_dirty()) {
    copy_combined(app_, user_, enc::run_bytes(run, tracker_.stripe_bytes()), image_.data());
  }
  return timer.seconds();
}

std::span<const std::byte> DoubleCheckpoint::staged() const {
  if (!params_.async_staging || image_.empty()) return {};
  return std::span<const std::byte>(image_.data(), combined_bytes_);
}

CommitStats DoubleCheckpoint::commit(CommCtx ctx) {
  require_open();
  // With staging enabled even a synchronous commit snapshots through the
  // image so its dirty-mirror invariant survives interleaving with the
  // async pipeline (cf. SelfCheckpoint::commit).
  if (params_.async_staging) stage();
  return commit_impl(ctx, /*async=*/false);
}

CommitStats DoubleCheckpoint::commit_staged(CommCtx ctx) {
  require_open();
  if (!params_.async_staging) {
    throw std::logic_error("DoubleCheckpoint: commit_staged() without async_staging");
  }
  return commit_impl(ctx, /*async=*/true);
}

CommitStats DoubleCheckpoint::commit_impl(CommCtx ctx, bool async) {
  SKT_SPAN("ckpt.commit");
  Header h = load_or_init(header_, params_.data_bytes, params_.user_bytes,
                          static_cast<std::uint32_t>(ctx.group.size()),
                          static_cast<std::uint32_t>(params_.codec));
  // Globally agreed epoch (see the note in SelfCheckpoint::commit).
  const std::uint64_t next = ctx.world.allreduce_value<std::uint64_t>(
                                 std::max(h.bc_epoch, h.d_epoch), mpi::Max{}) +
                             1;
  // Alternate targets: epoch e lives in pair e % 2, so the commit always
  // overwrites the older pair and the newer one stays intact throughout.
  const int target = static_cast<int>(next % 2);

  ctx.group.failpoint(async ? "ckpt.async_begin" : "ckpt.begin");
  ctx.world.barrier();

  // Staged commits snapshotted (runs + image) in stage(); synchronous
  // ones fold the live runs here.
  const bool staging = params_.async_staging;
  if (!staging) fold_dirty();
  const std::vector<enc::BlockRun> dirty = pair_dirty_[target].runs();
  const std::size_t stripe = tracker_.stripe_bytes();

  CommitStats stats;
  stats.epoch = next;
  telemetry::set_epoch(next);

  // Save the target pair's OLD content of the dirty runs — the delta base
  // the flush is about to overwrite. Deliberately uninitialized: the codec
  // reads the base only inside the runs (and its full-encode fallback
  // reads only `next`, the fully flushed pair).
  util::AlignedBuffer base(ckpt_[target]->size());
  util::WallTimer flush_timer;
  std::size_t flushed = 0;
  {
    SKT_SPAN("ckpt.flush");
    for (const enc::BlockRun& run : dirty) {
      const enc::ByteRange r = enc::run_bytes(run, stripe);
      std::memcpy(base.data() + r.begin, ckpt_[target]->bytes().data() + r.begin, r.size());
      if (staging) {
        std::memcpy(ckpt_[target]->bytes().data() + r.begin, image_.data() + r.begin,
                    r.size());
      } else {
        copy_combined(app_, user_, r, ckpt_[target]->bytes().data());
      }
      flushed += r.size();
    }
  }
  stats.flush_s = flush_timer.seconds();
  ctx.group.failpoint(async ? "ckpt.async_mid_update" : "ckpt.mid_update");

  const double encode_virtual_before = ctx.group.virtual_seconds();
  const std::uint64_t wire_before = ctx.group.runtime().wire_bytes();
  util::WallTimer encode_timer;
  {
    SKT_SPAN("ckpt.encode");
    coder_->encode_delta(ctx.group, {base.data(), base.size()}, ckpt_[target]->bytes(),
                         check_[target]->bytes(), check_[target]->bytes(), dirty);
  }
  stats.encode_s = encode_timer.seconds();
  stats.encode_virtual_s = ctx.group.virtual_seconds() - encode_virtual_before;
  ctx.group.failpoint(async ? "ckpt.async_encode_done" : "ckpt.encode_done");
  pair_dirty_[target].clear();

  // Global barrier before publication: no rank may declare the new pair
  // committed until every rank finished writing it.
  ctx.world.barrier();
  // Read after the barrier, as in SelfCheckpoint: every encode send is done.
  stats.encode_wire_bytes = ctx.group.runtime().wire_bytes() - wire_before;
  if (target == 0) {
    h.bc_epoch = next;
  } else {
    h.d_epoch = next;
  }
  store_header(header_, h);
  ctx.group.failpoint(async ? "ckpt.async_flushed" : "ckpt.flushed");
  ctx.world.barrier();

  stats.checkpoint_bytes = flushed;
  stats.checksum_bytes = check_[target]->size();
  tracker_.account(dirty, stats);
  if (!async) ctx.group.record_time("checkpoint", stats.total_s());
  return stats;
}

bool DoubleCheckpoint::restore_feasible(CommCtx ctx) {
  return static_cast<int>(missing_members(ctx.group, survivor_).size()) <=
         coder_->max_failures();
}

RestoreStats DoubleCheckpoint::restore(CommCtx ctx) {
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
    throw Unrecoverable("double-checkpoint: " + std::to_string(missing.size()) +
                        " members lost in one group; the degree-" +
                        std::to_string(coder_->max_failures()) +
                        " erasure code cannot recover");
  }

  // A pair is usable when its epoch is uniform across survivors (a pair
  // under active overwrite at failure time has mixed epochs). Choose the
  // newest usable one.
  const bool pair0_ok = global.bc_min == global.bc_max && global.bc_min >= 1;
  const bool pair1_ok = global.d_min == global.d_max && global.d_min >= 1;
  int pair = -1;
  std::uint64_t target = 0;
  if (pair0_ok && global.bc_min > target) {
    pair = 0;
    target = global.bc_min;
  }
  if (pair1_ok && global.d_min > target) {
    pair = 1;
    target = global.d_min;
  }
  if (pair < 0) {
    throw Unrecoverable("double-checkpoint: no complete pair to restore");
  }

  RestoreStats stats;
  stats.epoch = target;
  util::WallTimer timer;

  if (!missing.empty()) {
    SKT_SPAN("ckpt.restore.rebuild");
    coder_->rebuild(ctx.group, missing, ckpt_[pair]->bytes(), check_[pair]->bytes());
  }
  {
    SKT_SPAN("ckpt.restore.reload");
    std::memcpy(app_.data(), ckpt_[pair]->bytes().data(), app_.size());
    std::memcpy(user_.data(), ckpt_[pair]->bytes().data() + app_.size(), user_.size());

    // Re-establish the dirty-accumulation invariants: the staging image (if
    // any) mirrors the restored pair exactly, the other pair's content is
    // unknown (a rebuilt member's is zeros), and nothing is dirty relative
    // to the snapshot.
    if (!image_.empty()) {
      std::memcpy(image_.data(), ckpt_[pair]->bytes().data(), image_.size());
    }
    pair_dirty_[pair].clear();
    pair_dirty_[1 - pair].add_all();
    tracker_.clear();

    // Re-sync the header. A rebuilt member only holds the restored pair; its
    // other pair reads epoch 0 until the next commit overwrites it, which the
    // newest-usable-pair rule tolerates.
    Header h = load_header(header_);
    h.magic = Header::kMagic;
    h.data_bytes = params_.data_bytes;
    h.user_bytes = params_.user_bytes;
    h.group_size = static_cast<std::uint32_t>(ctx.group.size());
    h.codec = static_cast<std::uint32_t>(params_.codec);
    if (!survivor_) {
      h.bc_epoch = pair == 0 ? target : 0;
      h.d_epoch = pair == 1 ? target : 0;
    }
    store_header(header_, h);
    survivor_ = true;
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

std::size_t DoubleCheckpoint::memory_bytes() const {
  if (!ckpt_[0]) return 0;
  return app_.size() + user_.size() + image_.size() + ckpt_[0]->size() + ckpt_[1]->size() +
         check_[0]->size() + check_[1]->size() + sizeof(Header);
}

std::uint64_t DoubleCheckpoint::committed_epoch() const {
  if (!header_) return 0;
  const Header h = load_header(header_);
  return h.valid() ? std::max(h.bc_epoch, h.d_epoch) : 0;
}

std::vector<ScrubRegion> DoubleCheckpoint::scrub_view() {
  require_open();
  // The two pairs hold different epochs, so no segment has a
  // byte-identical twin: corruption is detectable, repair needs the group.
  return {{"B0", ckpt_[0]->bytes(), {}},
          {"B1", ckpt_[1]->bytes(), {}},
          {"C0", check_[0]->bytes(), {}},
          {"C1", check_[1]->bytes(), {}}};
}

int DoubleCheckpoint::max_failures() const {
  return coder_ ? coder_->max_failures() : params_.parity_degree;
}

}  // namespace skt::ckpt
