// Block-granular dirty tracking shared by every checkpoint protocol.
//
// A tracker covers the protocol's padded image [data | user_state | pad],
// laid out as the erasure code's stripes (or fixed kBlockBytes stripes for
// strategies without an encoder), and records what changed in kBlockBytes
// blocks counted from each stripe's start (encoding/block_runs.hpp). It
// hands the dirty set to the protocol as runs: contiguous block ranges
// (stripe, first, end), at most kRunsPerStripe per stripe, the same runs
// the delta encode exchanges. A protocol stages, flushes and encodes
// exactly those runs, so an application that annotates its writes with
// mark() pays for the blocks it wrote, not for the stripes they fall in.
// Applications that never annotate fall back to all-dirty — full cost,
// always correct.
//
// A stripe marked in more than kRunsPerStripe places keeps a superset: its
// two closest runs merge across the clean gap between them. Copying or
// encoding a clean block is harmless (it equals its committed copy), so
// the superset only costs bytes.
//
// The contract is per epoch: runs() reports every stripe whole until the
// first mark after a clear(), so an epoch with no annotation commits in
// full. Once an application opts in by calling mark()/mark_all(), its
// UNMARKED mutations in that epoch would be left out of the next
// checkpoint, so an annotating application marks every write.
//
// The tracker also owns the commit's dirty accounting (account()), so
// every protocol reports CommitStats::dirty_bytes and dirty_fraction the
// same way.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "encoding/block_runs.hpp"

namespace skt::ckpt {

struct CommitStats;

class DirtyTracker {
 public:
  DirtyTracker() = default;

  /// Configure geometry: the tracked image is `stripe_count` stripes of
  /// `stripe_bytes`, covering data [0, data_bytes), the user tail
  /// [data_bytes, data_bytes + user_bytes), and zero padding beyond.
  /// Clears every mark. Throws std::length_error when a stripe holds more
  /// than enc::kMaxStripeBlocks blocks.
  void reset(std::size_t data_bytes, std::size_t user_bytes, std::size_t stripe_bytes,
             std::size_t stripe_count);

  [[nodiscard]] bool configured() const { return stripe_bytes_ != 0; }
  /// Erasure-stripe geometry of the tracked image.
  [[nodiscard]] std::size_t stripe_bytes() const { return stripe_bytes_; }
  [[nodiscard]] std::size_t stripe_count() const { return marked_.stripe_count(); }

  /// Declare [offset, offset + len) of data() modified. Throws
  /// std::out_of_range past data_bytes; len == 0 is a no-op.
  void mark(std::size_t offset, std::size_t len);

  /// Mark every block (full-footprint applications).
  void mark_all();

  /// Mark the blocks covering the user-state tail. Every commit calls
  /// this: the small A2 area is rewritten unconditionally.
  void mark_user_tail();

  /// True once mark()/mark_all() ran since the last clear().
  [[nodiscard]] bool annotated() const { return annotated_; }

  /// The dirty runs in (stripe, first) order. An un-annotated tracker
  /// reports one whole run per stripe, so protocols degrade to full-cost
  /// commits, never to silent corruption.
  [[nodiscard]] std::vector<enc::BlockRun> runs() const;

  /// Fill stats.dirty_bytes (the bytes of `runs`, block-exact: a stripe's
  /// short last block counts its own size) and stats.dirty_fraction (the
  /// share of stripes holding a dirty block) for a commit of `runs`, given
  /// in (stripe, first) order as runs() and RunSet::runs() return them.
  void account(std::span<const enc::BlockRun> runs, CommitStats& stats) const;

  /// No marks, not annotated.
  void clear();

 private:
  void mark_blocks(std::size_t offset, std::size_t len);

  std::size_t data_bytes_ = 0;
  std::size_t user_bytes_ = 0;
  std::size_t stripe_bytes_ = 0;
  bool annotated_ = false;
  enc::RunSet marked_;
};

}  // namespace skt::ckpt
