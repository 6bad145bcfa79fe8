#include "ckpt/dirty_tracker.hpp"

#include <algorithm>
#include <stdexcept>

namespace skt::ckpt {

void DirtyTracker::reset(std::size_t data_bytes, std::size_t user_bytes,
                         std::size_t stripe_bytes, std::size_t stripe_count) {
  if (stripe_bytes == 0 || stripe_count == 0) {
    throw std::invalid_argument("DirtyTracker: zero stripe geometry");
  }
  if (stripe_bytes * stripe_count < data_bytes + user_bytes) {
    throw std::invalid_argument("DirtyTracker: stripes do not cover data + user state");
  }
  data_bytes_ = data_bytes;
  user_bytes_ = user_bytes;
  stripe_bytes_ = stripe_bytes;
  flags_.assign(stripe_count, 0);
  annotated_ = false;
}

void DirtyTracker::mark_stripes(std::size_t offset, std::size_t len) {
  if (len == 0) return;
  // offset/len were validated against the tracked image by the caller, so
  // `last` cannot pass the flag vector. Check anyway and throw: a silent
  // clamp could drop a tail stripe without a trace.
  const std::size_t first = offset / stripe_bytes_;
  const std::size_t last = (offset + len - 1) / stripe_bytes_;
  if (last >= flags_.size()) {
    throw std::out_of_range("DirtyTracker: marked range exceeds tracked stripes");
  }
  for (std::size_t s = first; s <= last; ++s) flags_[s] = 1;
  annotated_ = true;
}

void DirtyTracker::mark(std::size_t offset, std::size_t len) {
  if (!configured()) throw std::logic_error("DirtyTracker: not configured");
  if (len > data_bytes_ || offset > data_bytes_ - len) {
    throw std::out_of_range("DirtyTracker::mark: range exceeds data()");
  }
  mark_stripes(offset, len);
}

void DirtyTracker::mark_all() {
  if (!configured()) throw std::logic_error("DirtyTracker: not configured");
  std::fill(flags_.begin(), flags_.end(), std::uint8_t{1});
  annotated_ = true;
}

void DirtyTracker::mark_user_tail() {
  if (!configured()) throw std::logic_error("DirtyTracker: not configured");
  // The tail being rewritten every commit is a protocol invariant, not an
  // application annotation — it must not flip an un-annotated tracker
  // (whose effective() is all-dirty) into a tail-only one.
  const bool was = annotated_;
  mark_stripes(data_bytes_, user_bytes_);
  annotated_ = was;
}

std::vector<std::uint8_t> DirtyTracker::effective() const {
  if (!annotated_) return std::vector<std::uint8_t>(flags_.size(), 1);
  return flags_;
}

std::size_t DirtyTracker::dirty_stripes() const {
  if (!annotated_) return flags_.size();
  std::size_t n = 0;
  for (std::uint8_t f : flags_) n += f;
  return n;
}

double DirtyTracker::dirty_fraction() const {
  if (flags_.empty()) return 0.0;
  return static_cast<double>(dirty_stripes()) / static_cast<double>(flags_.size());
}

void DirtyTracker::clear() {
  std::fill(flags_.begin(), flags_.end(), std::uint8_t{0});
  annotated_ = false;
}

}  // namespace skt::ckpt
