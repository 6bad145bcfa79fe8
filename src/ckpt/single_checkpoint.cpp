#include "ckpt/single_checkpoint.hpp"

#include <cstring>
#include <stdexcept>

#include "ckpt/epoch.hpp"
#include "telemetry/trace.hpp"
#include "util/clock.hpp"

namespace skt::ckpt {

SingleCheckpoint::SingleCheckpoint(Params params) : params_(std::move(params)) {
  if (params_.data_bytes == 0) throw std::invalid_argument("SingleCheckpoint: data_bytes == 0");
  if (params_.user_bytes == 0) throw std::invalid_argument("SingleCheckpoint: user_bytes == 0");
  combined_bytes_ = params_.data_bytes + params_.user_bytes;
  app_.assign(params_.data_bytes, std::byte{0});
  user_.assign(params_.user_bytes, std::byte{0});
}

std::string SingleCheckpoint::key(const char* part) const {
  return params_.key_prefix + ".r" + std::to_string(world_rank_) + ".single." + part;
}

void SingleCheckpoint::require_open() const {
  if (!ckpt_b_) throw std::logic_error("SingleCheckpoint: open() has not been called");
}

bool SingleCheckpoint::open(CommCtx ctx) {
  world_rank_ = ctx.group.world_rank();
  codec_.emplace(params_.codec, combined_bytes_, ctx.group.size());
  const std::size_t stripe = codec_->layout().stripe_bytes();
  const std::size_t stripes = codec_->padded_bytes() / stripe;
  tracker_.reset(params_.data_bytes, params_.user_bytes, stripe, stripes);
  if (params_.async_staging) {
    image_.assign(codec_->padded_bytes(), std::byte{0});
    staged_ = enc::RunSet(stripe, stripes);
    staged_.add_all();  // image_ != committed B until proven
  }

  sim::PersistentStore& store = ctx.group.store();
  const std::string hdr_key = key("hdr");
  survivor_ = false;
  if (sim::SegmentPtr existing = store.attach(hdr_key); existing != nullptr) {
    const Header h = load_header(existing);
    if (h.valid()) survivor_ = true;
  }

  ckpt_b_ = store.create(key("B"), codec_->padded_bytes(), params_.owner);
  check_c_ = store.create(key("C"), codec_->checksum_bytes(), params_.owner);
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
  return global.bc_max >= 1;
}

std::span<std::byte> SingleCheckpoint::data() {
  require_open();
  return app_;
}

std::span<std::byte> SingleCheckpoint::user_state() { return user_; }

double SingleCheckpoint::stage() {
  require_open();
  if (!params_.async_staging) {
    throw std::logic_error("SingleCheckpoint: stage() without async_staging");
  }
  SKT_SPAN("ckpt.stage");
  util::WallTimer timer;
  // image_ equals the working content as of the previous stage() on every
  // clean block, so only the runs dirtied since then need copying.
  tracker_.mark_user_tail();
  const std::vector<enc::BlockRun> runs = tracker_.runs();
  for (const enc::BlockRun& run : runs) {
    copy_combined(app_, user_, enc::run_bytes(run, tracker_.stripe_bytes()), image_.data());
  }
  staged_.add(runs);
  tracker_.clear();
  return timer.seconds();
}

std::span<const std::byte> SingleCheckpoint::staged() const {
  if (!params_.async_staging || image_.empty()) return {};
  return std::span<const std::byte>(image_.data(), combined_bytes_);
}

CommitStats SingleCheckpoint::commit(CommCtx ctx) {
  require_open();
  // With staging enabled even a synchronous commit snapshots through the
  // image so its dirty-mirror invariant survives interleaving with the
  // async pipeline (cf. SelfCheckpoint::commit).
  if (params_.async_staging) stage();
  return commit_impl(ctx, /*async=*/false);
}

CommitStats SingleCheckpoint::commit_staged(CommCtx ctx) {
  require_open();
  if (!params_.async_staging) {
    throw std::logic_error("SingleCheckpoint: commit_staged() without async_staging");
  }
  return commit_impl(ctx, /*async=*/true);
}

CommitStats SingleCheckpoint::commit_impl(CommCtx ctx, bool async) {
  SKT_SPAN("ckpt.commit");
  Header h = load_or_init(header_, params_.data_bytes, params_.user_bytes,
                          static_cast<std::uint32_t>(ctx.group.size()),
                          static_cast<std::uint32_t>(params_.codec));
  // Globally agreed epoch (see the note in SelfCheckpoint::commit).
  const std::uint64_t next =
      ctx.world.allreduce_value<std::uint64_t>(h.bc_epoch, mpi::Max{}) + 1;

  ctx.group.failpoint(async ? "ckpt.async_begin" : "ckpt.begin");
  ctx.world.barrier();

  // What goes into B and which runs differ from it: the staged image
  // with its accumulated set, or the live [A|A2] with the tracker's.
  const bool staging = params_.async_staging;
  if (!staging) tracker_.mark_user_tail();
  const std::vector<enc::BlockRun> dirty = staging ? staged_.runs() : tracker_.runs();
  const std::size_t stripe = tracker_.stripe_bytes();

  // Mark the update window: from here until the final header write, (B, C)
  // is not a trustworthy pair.
  h.d_epoch = next;
  store_header(header_, h);

  CommitStats stats;
  stats.epoch = next;
  telemetry::set_epoch(next);

  // Save B's old content of the dirty runs — the delta base the flush
  // overwrites. Deliberately uninitialized: the codec reads the base only
  // inside the runs (its full-encode fallback reads only `next`).
  util::AlignedBuffer base(ckpt_b_->size());
  util::WallTimer flush_timer;
  std::size_t flushed = 0;
  {
    SKT_SPAN("ckpt.flush");
    for (const enc::BlockRun& run : dirty) {
      const enc::ByteRange r = enc::run_bytes(run, stripe);
      std::memcpy(base.data() + r.begin, ckpt_b_->bytes().data() + r.begin, r.size());
      if (staging) {
        std::memcpy(ckpt_b_->bytes().data() + r.begin, image_.data() + r.begin, r.size());
      } else {
        copy_combined(app_, user_, r, ckpt_b_->bytes().data());
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
    codec_->encode_delta(ctx.group, {base.data(), base.size()}, ckpt_b_->bytes(),
                         check_c_->bytes(), check_c_->bytes(), dirty);
  }
  stats.encode_s = encode_timer.seconds();
  stats.encode_virtual_s = ctx.group.virtual_seconds() - encode_virtual_before;
  ctx.group.failpoint(async ? "ckpt.async_encode_done" : "ckpt.encode_done");
  if (staging) {
    staged_.clear();
  } else {
    tracker_.clear();
  }

  h.bc_epoch = next;
  h.d_epoch = next;
  store_header(header_, h);
  ctx.group.failpoint(async ? "ckpt.async_flushed" : "ckpt.flushed");
  ctx.world.barrier();
  // Read after the barrier, as in SelfCheckpoint: every encode send is done.
  stats.encode_wire_bytes = ctx.group.runtime().wire_bytes() - wire_before;

  stats.checkpoint_bytes = flushed;
  stats.checksum_bytes = check_c_->size();
  tracker_.account(dirty, stats);
  if (!async) ctx.group.record_time("checkpoint", stats.total_s());
  return stats;
}

RestoreStats SingleCheckpoint::restore(CommCtx ctx) {
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
  if (missing.size() > 1) {
    throw Unrecoverable("single-checkpoint: multiple members lost in one group");
  }
  // Recoverable only when no survivor was inside the update window.
  if (global.bc_min != global.bc_max || global.d_min != global.d_max ||
      global.d_min != global.bc_min) {
    throw Unrecoverable(
        "single-checkpoint: failure hit the checkpoint update window; (B, C) inconsistent "
        "(CASE 2 of Fig. 2)");
  }
  if (global.bc_min == 0) {
    throw Unrecoverable("single-checkpoint: no committed checkpoint to restore");
  }

  RestoreStats stats;
  stats.epoch = global.bc_min;
  util::WallTimer timer;

  if (!missing.empty()) {
    SKT_SPAN("ckpt.restore.rebuild");
    codec_->rebuild(ctx.group, missing.front(), ckpt_b_->bytes(), check_c_->bytes());
  }
  {
    SKT_SPAN("ckpt.restore.reload");
    std::memcpy(app_.data(), ckpt_b_->bytes().data(), app_.size());
    std::memcpy(user_.data(), ckpt_b_->bytes().data() + app_.size(), user_.size());

    // Re-establish the dirty-mirror invariants: the working view (and the
    // staging image, if any) now equals B exactly.
    tracker_.clear();
    if (!image_.empty()) {
      std::memcpy(image_.data(), ckpt_b_->bytes().data(), image_.size());
      staged_.clear();
    }

    Header h = load_header(header_);
    h.bc_epoch = stats.epoch;
    h.d_epoch = stats.epoch;
    h.data_bytes = params_.data_bytes;
    h.user_bytes = params_.user_bytes;
    h.group_size = static_cast<std::uint32_t>(ctx.group.size());
    h.codec = static_cast<std::uint32_t>(params_.codec);
    h.magic = Header::kMagic;
    store_header(header_, h);
    survivor_ = true;
  }

  stats.rebuild_s = timer.seconds();
  stats.rebuilt_member = !missing.empty() && missing.front() == ctx.group.rank();
  ctx.group.record_time("recover", stats.rebuild_s);
  {
    SKT_SPAN("ckpt.restore.barrier");
    ctx.world.barrier();
  }
  return stats;
}

std::size_t SingleCheckpoint::memory_bytes() const {
  if (!ckpt_b_) return 0;
  return app_.size() + user_.size() + image_.size() + ckpt_b_->size() + check_c_->size() +
         sizeof(Header);
}

std::uint64_t SingleCheckpoint::committed_epoch() const {
  if (!header_) return 0;
  const Header h = load_header(header_);
  return h.valid() ? h.bc_epoch : 0;
}

}  // namespace skt::ckpt
