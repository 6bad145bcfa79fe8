// Block runs: the unit in which commits track, exchange, encode, stage and
// flush what changed.
//
// A padded buffer is split into stripes (group_codec.hpp), and
// every stripe into kBlockBytes blocks counted from the stripe's start, so
// the last block of a stripe is short when the stripe is not a whole
// number of blocks. A dirty set is a list of runs: contiguous block ranges
// (stripe, first, end) that never cross a stripe.
//
// Byte o of every parity row of a family combines
// only byte o of each member's stripe for that family, so a dirty byte
// range of a stripe changes only the same range of its checksum. That is
// what lets encode_delta move a run's bytes instead of its whole stripe:
// each member lends the diff of each of its exchanged runs, whole, to the
// owner of every parity row the stripe feeds.
//
// The delta encode exchanges every member's runs in a fixed record of
// kRunsPerStripe block ranges per stripe (StripeRuns, 8 bytes), so the
// exchange stays O(stripes) however the application wrote. A stripe with
// more runs merges the two closest across their gap. The merged range is a
// superset of the dirty blocks, which is always safe: a protocol copies
// and encodes the same superset, and a clean block's diff is zero.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace skt::mpi {
class Comm;
}

namespace skt::enc {

/// Dirty-tracking granularity of every protocol, the unit of the delta
/// encode, and the scrubber's default chunk.
inline constexpr std::size_t kBlockBytes = 4096;

/// Runs per stripe that a RunSet keeps and the delta encode exchanges.
inline constexpr std::size_t kRunsPerStripe = 2;

/// The exchange stores block indices as uint16: a stripe may hold at most
/// this many blocks (256 MiB at kBlockBytes). Longer stripes are rejected
/// when a RunSet is built for them, never truncated.
inline constexpr std::size_t kMaxStripeBlocks = 0xFFFF;

/// Blocks [first, end) of stripe `stripe`.
struct BlockRun {
  std::size_t stripe = 0;
  std::size_t first = 0;
  std::size_t end = 0;
  friend bool operator==(const BlockRun&, const BlockRun&) = default;
};

/// Blocks in a stripe of `stripe_bytes`; the last one may be short.
[[nodiscard]] constexpr std::size_t stripe_blocks(std::size_t stripe_bytes) {
  return (stripe_bytes + kBlockBytes - 1) / kBlockBytes;
}

/// Byte range [begin, end) of blocks [first, last) within a stripe of
/// `stripe_bytes`, clipped at the stripe's end.
struct ByteRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  [[nodiscard]] std::size_t size() const { return end - begin; }
};

[[nodiscard]] constexpr ByteRange block_bytes(std::size_t first, std::size_t last,
                                              std::size_t stripe_bytes) {
  const std::size_t begin = first * kBlockBytes;
  const std::size_t end = last * kBlockBytes;
  return {begin < stripe_bytes ? begin : stripe_bytes, end < stripe_bytes ? end : stripe_bytes};
}

/// The bytes of `run` within its padded buffer.
[[nodiscard]] constexpr ByteRange run_bytes(const BlockRun& run, std::size_t stripe_bytes) {
  const ByteRange local = block_bytes(run.first, run.end, stripe_bytes);
  return {run.stripe * stripe_bytes + local.begin, run.stripe * stripe_bytes + local.end};
}

/// One stripe's exchange record: up to kRunsPerStripe disjoint block
/// ranges in ascending order, an empty range (first == end) marking an
/// unused slot.
struct StripeRuns {
  std::array<std::uint16_t, kRunsPerStripe> first{};
  std::array<std::uint16_t, kRunsPerStripe> end{};
};
static_assert(sizeof(StripeRuns) == 8, "the exchange format is 8 bytes per stripe");

/// A dirty set over `stripe_count` stripes, held as at most
/// kRunsPerStripe runs per stripe: adding a run that touches or overlaps
/// one joins it, and one that would make a stripe's third merges the two
/// closest runs across their gap.
class RunSet {
 public:
  RunSet() = default;
  /// Throws std::length_error when a stripe holds more than
  /// kMaxStripeBlocks blocks.
  RunSet(std::size_t stripe_bytes, std::size_t stripe_count);

  [[nodiscard]] std::size_t stripe_count() const { return stripes_.size(); }
  /// Blocks per stripe.
  [[nodiscard]] std::size_t blocks() const { return blocks_; }

  /// Throws std::out_of_range for a run outside the geometry; an empty
  /// run (first == end) is a no-op.
  void add(const BlockRun& run);
  void add(std::span<const BlockRun> runs);
  /// Every block of every stripe.
  void add_all();
  void clear();

  /// The runs, in (stripe, first) order.
  [[nodiscard]] std::vector<BlockRun> runs() const;
  /// The exchange records, one per stripe.
  [[nodiscard]] std::span<const StripeRuns> records() const { return stripes_; }

 private:
  std::size_t blocks_ = 0;
  std::vector<StripeRuns> stripes_;
};

/// Collective over `group`: pack this member's `runs` over its
/// `stripe_count` stripes of `stripe_bytes` into the exchange format and
/// allgather them. Returns group.size() * stripe_count records, member
/// major, identical on every member.
[[nodiscard]] std::vector<StripeRuns> exchange_runs(mpi::Comm& group,
                                                    std::span<const BlockRun> runs,
                                                    std::size_t stripe_bytes,
                                                    std::size_t stripe_count);

/// Bytes the exchanged records mark dirty, over stripes of `stripe_bytes`:
/// what a sparse delta moves once per parity row, since every run is lent
/// once to each row's owner.
[[nodiscard]] std::size_t dirty_bytes(std::span<const StripeRuns> exchanged,
                                      std::size_t stripe_bytes);

}  // namespace skt::enc
