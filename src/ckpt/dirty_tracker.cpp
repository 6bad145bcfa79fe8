#include "ckpt/dirty_tracker.hpp"

#include <algorithm>
#include <stdexcept>

#include "ckpt/protocol.hpp"

namespace skt::ckpt {

void DirtyTracker::reset(std::size_t data_bytes, std::size_t user_bytes,
                         std::size_t stripe_bytes, std::size_t stripe_count) {
  if (stripe_bytes == 0 || stripe_count == 0) {
    throw std::invalid_argument("DirtyTracker: zero stripe geometry");
  }
  if (stripe_bytes * stripe_count < data_bytes + user_bytes) {
    throw std::invalid_argument("DirtyTracker: stripes do not cover data + user state");
  }
  marked_ = enc::RunSet(stripe_bytes, stripe_count);
  data_bytes_ = data_bytes;
  user_bytes_ = user_bytes;
  stripe_bytes_ = stripe_bytes;
  annotated_ = false;
}

void DirtyTracker::mark_blocks(std::size_t offset, std::size_t len) {
  if (len == 0) return;
  // offset/len were validated against the tracked image by the caller, so
  // the last stripe cannot pass the geometry; RunSet::add still throws
  // rather than clamp if it did.
  const std::size_t end = offset + len;
  for (std::size_t s = offset / stripe_bytes_; s * stripe_bytes_ < end; ++s) {
    const std::size_t lo = std::max(offset, s * stripe_bytes_) - s * stripe_bytes_;
    const std::size_t hi = std::min(end, (s + 1) * stripe_bytes_) - s * stripe_bytes_;
    marked_.add({s, lo / enc::kBlockBytes, (hi + enc::kBlockBytes - 1) / enc::kBlockBytes});
  }
  annotated_ = true;
}

void DirtyTracker::mark(std::size_t offset, std::size_t len) {
  if (!configured()) throw std::logic_error("DirtyTracker: not configured");
  if (len > data_bytes_ || offset > data_bytes_ - len) {
    throw std::out_of_range("DirtyTracker::mark: range exceeds data()");
  }
  mark_blocks(offset, len);
}

void DirtyTracker::mark_all() {
  if (!configured()) throw std::logic_error("DirtyTracker: not configured");
  marked_.add_all();
  annotated_ = true;
}

void DirtyTracker::mark_user_tail() {
  if (!configured()) throw std::logic_error("DirtyTracker: not configured");
  // The tail being rewritten every commit is a protocol invariant, not an
  // application annotation — it must not flip an un-annotated tracker
  // (whose runs() are all-dirty) into a tail-only one.
  const bool was = annotated_;
  mark_blocks(data_bytes_, user_bytes_);
  annotated_ = was;
}

std::vector<enc::BlockRun> DirtyTracker::runs() const {
  if (annotated_) return marked_.runs();
  std::vector<enc::BlockRun> all;
  for (std::size_t s = 0; s < stripe_count(); ++s) all.push_back({s, 0, marked_.blocks()});
  return all;
}

void DirtyTracker::account(std::span<const enc::BlockRun> runs, CommitStats& stats) const {
  std::size_t bytes = 0;
  std::size_t stripes = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    bytes += enc::run_bytes(runs[i], stripe_bytes_).size();
    if (i == 0 || runs[i].stripe != runs[i - 1].stripe) ++stripes;
  }
  stats.dirty_bytes = bytes;
  stats.dirty_fraction = stripe_count() == 0 ? 0.0
                                             : static_cast<double>(stripes) /
                                                   static_cast<double>(stripe_count());
}

void DirtyTracker::clear() {
  marked_.clear();
  annotated_ = false;
}

}  // namespace skt::ckpt
