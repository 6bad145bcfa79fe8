// Stripe-granular dirty tracking shared by every checkpoint protocol.
//
// A tracker covers the protocol's padded image [data | user_state | pad]
// at the granularity of the erasure code's stripes (or a fixed block size
// for strategies without an encoder). Applications that annotate their
// writes with mark() get commits whose copy/encode/flush cost scales with
// the dirty footprint; applications that never annotate fall back to
// all-dirty — full cost, always correct.
//
// The contract is per epoch: effective() reports every stripe dirty until
// the first mark after a clear(), so an epoch with no annotation commits
// in full. Once an application opts in by calling mark()/mark_all(), its
// UNMARKED mutations in that epoch would be left out of the next
// checkpoint, so an annotating application marks every write.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace skt::ckpt {

class DirtyTracker {
 public:
  DirtyTracker() = default;

  /// Configure geometry: the tracked image is `stripe_count` stripes of
  /// `stripe_bytes`, covering data [0, data_bytes), the user tail
  /// [data_bytes, data_bytes + user_bytes), and zero padding beyond.
  /// Resets all flags.
  void reset(std::size_t data_bytes, std::size_t user_bytes, std::size_t stripe_bytes,
             std::size_t stripe_count);

  [[nodiscard]] bool configured() const { return stripe_bytes_ != 0; }
  [[nodiscard]] std::size_t stripe_bytes() const { return stripe_bytes_; }
  [[nodiscard]] std::size_t stripe_count() const { return flags_.size(); }
  [[nodiscard]] std::size_t tracked_bytes() const { return stripe_bytes_ * flags_.size(); }

  /// Declare [offset, offset + len) of data() modified. Throws
  /// std::out_of_range past data_bytes; len == 0 is a no-op.
  void mark(std::size_t offset, std::size_t len);

  /// Mark every stripe (full-footprint applications).
  void mark_all();

  /// Mark the stripes covering the user-state tail. Every commit calls
  /// this: the small A2 area is rewritten unconditionally, and its bytes
  /// share stripes with the end of the data region.
  void mark_user_tail();

  /// True once mark()/mark_all() ran since the last clear().
  [[nodiscard]] bool annotated() const { return annotated_; }

  /// Safe per-stripe flags: an un-annotated tracker reports every stripe
  /// dirty, so protocols degrade to full-cost commits, never to silent
  /// corruption.
  [[nodiscard]] std::vector<std::uint8_t> effective() const;

  [[nodiscard]] std::size_t dirty_stripes() const;
  [[nodiscard]] std::size_t dirty_bytes() const { return dirty_stripes() * stripe_bytes_; }
  /// Dirty fraction of the tracked image; an un-annotated tracker is 1.0.
  [[nodiscard]] double dirty_fraction() const;

  /// All clean, not annotated.
  void clear();

 private:
  void mark_stripes(std::size_t offset, std::size_t len);

  std::size_t data_bytes_ = 0;
  std::size_t user_bytes_ = 0;
  std::size_t stripe_bytes_ = 0;
  bool annotated_ = false;
  std::vector<std::uint8_t> flags_;
};

}  // namespace skt::ckpt
