#include "ckpt/incremental.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "ckpt/epoch.hpp"
#include "telemetry/trace.hpp"
#include "util/clock.hpp"

namespace skt::ckpt {
namespace {

/// Header "codec" tag distinguishing the incremental layout.
constexpr std::uint32_t kIncrementalTag = 0x1000;

}  // namespace

IncrementalSelfCheckpoint::IncrementalSelfCheckpoint(Params params)
    : params_(std::move(params)) {
  if (params_.data_bytes == 0) {
    throw std::invalid_argument("IncrementalSelfCheckpoint: data_bytes == 0");
  }
  if (params_.user_bytes == 0) {
    throw std::invalid_argument("IncrementalSelfCheckpoint: user_bytes == 0");
  }
  combined_bytes_ = params_.data_bytes + params_.user_bytes;
  user_.assign(params_.user_bytes, std::byte{0});
}

std::string IncrementalSelfCheckpoint::key(const char* part) const {
  return params_.key_prefix + ".r" + std::to_string(world_rank_) + ".incr." + part;
}

std::uint32_t IncrementalSelfCheckpoint::codec_field() const {
  return kIncrementalTag | (static_cast<std::uint32_t>(params_.parity_degree) << 8) |
         (params_.async_staging ? 1u << 16 : 0u);
}

void IncrementalSelfCheckpoint::require_open() const {
  if (!work_) throw std::logic_error("IncrementalSelfCheckpoint: open() not called");
}

bool IncrementalSelfCheckpoint::open(CommCtx ctx) {
  world_rank_ = ctx.group.world_rank();
  group_size_ = ctx.group.size();
  if (params_.parity_degree <= 1) {
    codec_ = std::make_unique<enc::GroupCodec>(enc::CodecKind::kXor, combined_bytes_,
                                               group_size_);
    tracker_.reset(params_.data_bytes, params_.user_bytes, codec_->layout().stripe_bytes(),
                   static_cast<std::size_t>(group_size_ - 1));
  } else {
    rs_ = std::make_unique<enc::RSGroupCodec>(combined_bytes_, group_size_,
                                              params_.parity_degree);
    tracker_.reset(params_.data_bytes, params_.user_bytes, rs_->stripe_bytes(),
                   static_cast<std::size_t>(group_size_ - params_.parity_degree));
  }
  tracker_.mark_all();  // first commit is full

  sim::PersistentStore& store = ctx.group.store();
  const std::string hdr_key = key("hdr");
  survivor_ = false;
  if (sim::SegmentPtr existing = store.attach(hdr_key); existing != nullptr) {
    const Header h = load_header(existing);
    if (h.valid()) {
      if (h.data_bytes != params_.data_bytes || h.user_bytes != params_.user_bytes ||
          h.group_size != static_cast<std::uint32_t>(group_size_) ||
          h.codec != codec_field()) {
        throw std::logic_error("IncrementalSelfCheckpoint: layout mismatch");
      }
      survivor_ = true;
    }
  }

  const std::size_t padded = codec_ ? codec_->padded_bytes() : rs_->padded_bytes();
  const std::size_t redundancy = codec_ ? codec_->checksum_bytes() : rs_->parity_bytes();
  work_ = store.create(key("work"), padded, params_.owner);
  ckpt_b_ = store.create(key("B"), padded, params_.owner);
  check_c_ = store.create(key("C"), redundancy, params_.owner);
  check_d_ = store.create(key("D"), redundancy, params_.owner);
  if (params_.async_staging) {
    stage_ = store.create(key("S"), padded, params_.owner);
    staged_dirty_.assign(tracker_.stripe_count(), 0);
  }
  header_ = store.create(hdr_key, sizeof(Header), params_.owner);

  const Header mine = load_header(header_);
  const EpochSummary global =
      summarize_epochs(ctx.world, survivor_, mine.bc_epoch, mine.d_epoch);
  if (!global.any_survivor) {
    store_header(header_, load_or_init(header_, params_.data_bytes, params_.user_bytes,
                                       static_cast<std::uint32_t>(group_size_),
                                       codec_field()));
    survivor_ = true;
    return false;
  }
  return global.bc_max >= 1 || global.d_max >= 1;
}

std::span<std::byte> IncrementalSelfCheckpoint::data() {
  require_open();
  return work_->bytes().subspan(0, params_.data_bytes);
}

std::span<std::byte> IncrementalSelfCheckpoint::user_state() { return user_; }

void IncrementalSelfCheckpoint::mark_dirty(std::size_t offset, std::size_t len) {
  require_open();
  tracker_.mark(offset, len);
}

void IncrementalSelfCheckpoint::mark_all_dirty() {
  require_open();
  tracker_.mark_all();
}

std::size_t IncrementalSelfCheckpoint::dirty_bytes() const {
  if (!tracker_.configured()) return 0;
  std::size_t stripes = 0;
  for (std::uint8_t d : tracker_.flags()) stripes += d;
  return stripes * tracker_.stripe_bytes();
}

double IncrementalSelfCheckpoint::stage() {
  require_open();
  if (!params_.async_staging) {
    throw std::logic_error("IncrementalSelfCheckpoint: stage() without async_staging");
  }
  SKT_SPAN("ckpt.stage");
  util::WallTimer timer;
  const std::size_t stripe = tracker_.stripe_bytes();
  // The user-state tail is part of every snapshot.
  tracker_.mark_user_tail();
  // S already equals the working buffer as of the previous stage() on every
  // clean stripe, so only the stripes dirtied since then need copying — the
  // critical path keeps the dirty-footprint scaling.
  staged_dirty_ = tracker_.flags();
  for (std::size_t s = 0; s < staged_dirty_.size(); ++s) {
    if (!staged_dirty_[s]) continue;
    std::memcpy(stage_->bytes().data() + s * stripe, work_->bytes().data() + s * stripe,
                stripe);
  }
  std::memcpy(stage_->bytes().data() + params_.data_bytes, user_.data(), params_.user_bytes);
  tracker_.clear();
  return timer.seconds();
}

std::span<const std::byte> IncrementalSelfCheckpoint::staged() const {
  if (!stage_) return {};
  return std::span<const std::byte>(stage_->bytes()).subspan(0, combined_bytes_);
}

CommitStats IncrementalSelfCheckpoint::commit(CommCtx ctx) {
  require_open();
  // With staging enabled even a synchronous commit encodes from S (see
  // SelfCheckpoint::commit).
  if (params_.async_staging) stage();
  return commit_impl(ctx, /*async=*/false);
}

CommitStats IncrementalSelfCheckpoint::commit_staged(CommCtx ctx) {
  require_open();
  if (!params_.async_staging) {
    throw std::logic_error("IncrementalSelfCheckpoint: commit_staged() without async_staging");
  }
  return commit_impl(ctx, /*async=*/true);
}

CommitStats IncrementalSelfCheckpoint::commit_impl(CommCtx ctx, bool async) {
  SKT_SPAN("ckpt.commit");
  // The encoded side and its dirty set: the staged copy S with the stripes
  // stage() captured, or the working buffer with the live dirty set.
  const bool staging = params_.async_staging;
  const std::span<std::byte> source = staging ? stage_->bytes() : work_->bytes();
  Header h = load_or_init(header_, params_.data_bytes, params_.user_bytes,
                          static_cast<std::uint32_t>(group_size_), codec_field());
  const std::uint64_t next =
      ctx.world.allreduce_value<std::uint64_t>(h.bc_epoch, mpi::Max{}) + 1;

  ctx.group.failpoint(async ? "ckpt.async_begin" : "ckpt.begin");
  ctx.world.barrier();

  if (!staging) {
    // A2 -> B2; the user-state tail always counts as dirty. (When staging,
    // stage() already folded A2 into S and its dirty set.)
    std::memcpy(work_->bytes().data() + params_.data_bytes, user_.data(), params_.user_bytes);
    tracker_.mark_user_tail();
    ctx.group.failpoint("ckpt.copy_a2");
  }
  // Raw flags on purpose: incremental's contract is that unmarked means
  // clean, so no unannotated all-dirty fallback here.
  const std::vector<std::uint8_t> dset = staging ? staged_dirty_ : tracker_.flags();

  CommitStats stats;
  stats.epoch = next;
  telemetry::set_epoch(next);
  ctx.group.failpoint(async ? "ckpt.async_encode_begin" : "ckpt.encode_begin");
  const double encode_virtual_before = ctx.group.virtual_seconds();
  const std::uint64_t wire_before = ctx.group.runtime().wire_bytes();
  util::WallTimer encode_timer;
  enc::DeltaOutcome outcome;
  {
    SKT_SPAN("ckpt.encode");
    // The incremental identity D = C (+) diff, folded into D in place
    // (C == D between commits, as in SelfCheckpoint): the XOR codec for
    // parity 1, the GF-weighted P' = P ^ sum c * (old ^ new) of the RS
    // codec otherwise.
    outcome = rs_ ? rs_->encode_delta(ctx.group, ckpt_b_->bytes(), source, check_d_->bytes(),
                                      check_d_->bytes(), dset)
                  : codec_->encode_delta(ctx.group, ckpt_b_->bytes(), source,
                                         check_d_->bytes(), check_d_->bytes(), dset);
  }
  last_encoded_families_ = outcome.dirty_families;
  stats.encode_s = encode_timer.seconds();
  stats.encode_virtual_s = ctx.group.virtual_seconds() - encode_virtual_before;
  ctx.group.failpoint(async ? "ckpt.async_encode_done" : "ckpt.encode_done");

  ctx.world.barrier();
  // Read after the barrier, as in SelfCheckpoint: every encode send is done.
  stats.encode_wire_bytes = ctx.group.runtime().wire_bytes() - wire_before;
  h.d_epoch = next;
  store_header(header_, h);
  ctx.group.failpoint(async ? "ckpt.async_sealed" : "ckpt.sealed");
  ctx.world.barrier();

  // Flush only the dirty stripes (plus the checksum, when it changed).
  const std::size_t stripe = tracker_.stripe_bytes();
  util::WallTimer flush_timer;
  std::size_t flushed = 0;
  {
    SKT_SPAN("ckpt.flush");
    for (std::size_t s = 0; s < dset.size(); ++s) {
      if (!dset[s]) continue;
      std::memcpy(ckpt_b_->bytes().data() + s * stripe, source.data() + s * stripe, stripe);
      flushed += stripe;
    }
    ctx.group.failpoint(async ? "ckpt.async_mid_flush" : "ckpt.mid_flush");
    if (outcome.changed) {
      std::memcpy(check_c_->bytes().data(), check_d_->bytes().data(), check_d_->size());
    }
  }
  stats.flush_s = flush_timer.seconds();
  if (staging) {
    std::fill(staged_dirty_.begin(), staged_dirty_.end(), std::uint8_t{0});
  } else {
    tracker_.clear();
  }
  h.bc_epoch = next;
  store_header(header_, h);
  ctx.group.failpoint(async ? "ckpt.async_flushed" : "ckpt.flushed");
  ctx.world.barrier();

  stats.checkpoint_bytes = flushed;
  stats.checksum_bytes = check_d_->size();
  stats.dirty_bytes = flushed;
  stats.dirty_fraction = dset.empty() ? 0.0
                                      : static_cast<double>(flushed) /
                                            static_cast<double>(dset.size() * stripe);
  if (!async) ctx.group.record_time("checkpoint", stats.encode_s + stats.flush_s);
  return stats;
}

bool IncrementalSelfCheckpoint::restore_feasible(CommCtx ctx) {
  return static_cast<int>(missing_members(ctx.group, survivor_).size()) <=
         max_failures();
}

void IncrementalSelfCheckpoint::reseed_epoch(CommCtx ctx, std::uint64_t epoch) {
  (void)ctx;
  Header h = load_or_init(header_, params_.data_bytes, params_.user_bytes,
                          static_cast<std::uint32_t>(group_size_), codec_field());
  h.bc_epoch = epoch;
  h.d_epoch = epoch;
  store_header(header_, h);
  survivor_ = true;
}

RestoreStats IncrementalSelfCheckpoint::restore(CommCtx ctx) {
  require_open();
  SKT_SPAN("ckpt.restore");
  ctx.group.failpoint("ckpt.restore");

  const Header mine = load_header(header_);
  const EpochSummary global =
      summarize_epochs(ctx.world, survivor_, mine.bc_epoch, mine.d_epoch);
  const std::vector<int> missing = missing_members(ctx.group, survivor_);
  const int max_failures = rs_ ? rs_->parity_count() : 1;
  if (static_cast<int>(missing.size()) > max_failures) {
    throw Unrecoverable("incremental self-checkpoint: " + std::to_string(missing.size()) +
                        " members lost in one group; the degree-" +
                        std::to_string(max_failures) + " erasure code cannot recover");
  }

  bool use_a_side = false;
  std::uint64_t target = 0;
  if (global.d_min == global.d_max && global.d_min > global.bc_min) {
    use_a_side = true;
    target = global.d_min;
  } else if (global.bc_min == global.bc_max) {
    target = global.bc_min;
  } else {
    throw Unrecoverable("incremental self-checkpoint: inconsistent epochs");
  }
  if (target == 0) {
    throw Unrecoverable("incremental self-checkpoint: no committed checkpoint");
  }

  RestoreStats stats;
  stats.epoch = target;
  util::WallTimer timer;

  const auto rebuild = [&](std::span<std::byte> data, std::span<std::byte> parity) {
    if (rs_) {
      rs_->rebuild(ctx.group, missing, data, parity);
    } else {
      codec_->rebuild(ctx.group, missing.front(), data, parity);
    }
  };
  if (!use_a_side) {
    if (survivor_) {
      std::memcpy(work_->bytes().data(), ckpt_b_->bytes().data(), work_->size());
      std::memcpy(check_d_->bytes().data(), check_c_->bytes().data(), check_c_->size());
    }
    if (!missing.empty()) {
      rebuild(work_->bytes(), check_d_->bytes());
      if (!survivor_) {
        std::memcpy(ckpt_b_->bytes().data(), work_->bytes().data(), work_->size());
        std::memcpy(check_c_->bytes().data(), check_d_->bytes().data(), check_d_->size());
      }
    }
  } else if (params_.async_staging) {
    // CASE 2, staged: the newest consistent set is (S, D). Rebuild the
    // lost member's S, complete the interrupted flush, and roll the
    // working buffer back to the staged image.
    if (!missing.empty()) {
      rebuild(stage_->bytes(), check_d_->bytes());
    }
    std::memcpy(ckpt_b_->bytes().data(), stage_->bytes().data(), stage_->size());
    std::memcpy(check_c_->bytes().data(), check_d_->bytes().data(), check_d_->size());
    std::memcpy(work_->bytes().data(), stage_->bytes().data(), stage_->size());
  } else {
    if (!missing.empty()) {
      rebuild(work_->bytes(), check_d_->bytes());
    }
    std::memcpy(ckpt_b_->bytes().data(), work_->bytes().data(), work_->size());
    std::memcpy(check_c_->bytes().data(), check_d_->bytes().data(), check_d_->size());
  }

  std::memcpy(user_.data(), work_->bytes().data() + params_.data_bytes, params_.user_bytes);
  if (params_.async_staging) {
    // Re-establish the staging invariant S == B == work so the next
    // stage() may copy dirty stripes only.
    std::memcpy(stage_->bytes().data(), work_->bytes().data(), work_->size());
    std::fill(staged_dirty_.begin(), staged_dirty_.end(), std::uint8_t{0});
  }
  Header h = load_or_init(header_, params_.data_bytes, params_.user_bytes,
                          static_cast<std::uint32_t>(group_size_), codec_field());
  h.bc_epoch = target;
  h.d_epoch = target;
  store_header(header_, h);
  survivor_ = true;
  // B == work everywhere now, so nothing is dirty.
  tracker_.clear();

  stats.rebuild_s = timer.seconds();
  stats.rebuilt_member =
      std::find(missing.begin(), missing.end(), ctx.group.rank()) != missing.end();
  ctx.group.record_time("recover", stats.rebuild_s);
  ctx.world.barrier();
  return stats;
}

std::size_t IncrementalSelfCheckpoint::memory_bytes() const {
  if (!work_) return 0;
  return work_->size() + ckpt_b_->size() + check_c_->size() + check_d_->size() +
         (stage_ ? stage_->size() : 0) + user_.size() + sizeof(Header) +
         tracker_.stripe_count() + staged_dirty_.size();
}

std::uint64_t IncrementalSelfCheckpoint::committed_epoch() const {
  if (!header_) return 0;
  const Header h = load_header(header_);
  return h.valid() ? std::max(h.bc_epoch, h.d_epoch) : 0;
}

std::vector<ScrubRegion> IncrementalSelfCheckpoint::scrub_view() {
  require_open();
  // Same invariants as SelfCheckpoint: C == D between commits, B has no
  // quiescent twin (see self_checkpoint.cpp).
  return {{"B", ckpt_b_->bytes(), {}},
          {"C", check_c_->bytes(), check_d_->bytes()},
          {"D", check_d_->bytes(), check_c_->bytes()}};
}

}  // namespace skt::ckpt
