// Dirty patterns over a group's padded buffers for the encode_delta ==
// encode equivalence tests of both group codecs. A pattern gives every
// member its dirty runs as a pure function of (member, geometry), so each
// member can evaluate every other member's runs and predict what the delta
// encode must do: which path it takes, what it puts on the wire, and which
// runs of its own checksum change.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "encoding/block_runs.hpp"
#include "util/rng.hpp"

namespace skt::testing {

enum class DirtyPattern {
  kNothing,          ///< no run
  kOneStripe,        ///< member 1's stripe 0, whole
  kEveryLastStripe,  ///< every member's last stripe, whole
  kBelowHalf,        ///< the most whole stripes that still take the sparse path
  kAtHalf,           ///< the fewest whole stripes that take the full encode
  kOneBlock,         ///< member 1's stripe 0, block 1
  kStraddleSegment,  ///< member 1's stripe 0, blocks 15-16: across the 64 KiB segment edge
  kShortLastBlock,   ///< every member's last stripe, its short last block
  kTwoRuns,          ///< two runs in member 2's stripe 0 and in member 0's last stripe
  kOverCapacity,     ///< three runs in member 1's stripe 0: the exchange merges two
  kFamilyOverlap,    ///< overlapping and disjoint runs in every member's stripe 0
  kAll,              ///< every block of every member (full encode)
};

inline constexpr DirtyPattern kDirtyPatterns[] = {
    DirtyPattern::kNothing,        DirtyPattern::kOneStripe,    DirtyPattern::kEveryLastStripe,
    DirtyPattern::kBelowHalf,      DirtyPattern::kAtHalf,       DirtyPattern::kOneBlock,
    DirtyPattern::kStraddleSegment, DirtyPattern::kShortLastBlock, DirtyPattern::kTwoRuns,
    DirtyPattern::kOverCapacity,   DirtyPattern::kFamilyOverlap, DirtyPattern::kAll};

inline const char* to_string(DirtyPattern pattern) {
  switch (pattern) {
    case DirtyPattern::kNothing: return "nothing";
    case DirtyPattern::kOneStripe: return "one_stripe";
    case DirtyPattern::kEveryLastStripe: return "every_last_stripe";
    case DirtyPattern::kBelowHalf: return "below_half";
    case DirtyPattern::kAtHalf: return "at_half";
    case DirtyPattern::kOneBlock: return "one_block";
    case DirtyPattern::kStraddleSegment: return "straddle_segment";
    case DirtyPattern::kShortLastBlock: return "short_last_block";
    case DirtyPattern::kTwoRuns: return "two_runs";
    case DirtyPattern::kOverCapacity: return "over_capacity";
    case DirtyPattern::kFamilyOverlap: return "family_overlap";
    case DirtyPattern::kAll: return "all";
  }
  return "?";
}

/// The runs member `p` declares, over `stripes` stripes of `blocks` blocks
/// each (at least 24 blocks, so every pattern fits).
inline std::vector<enc::BlockRun> pattern_runs(DirtyPattern pattern, int n, std::size_t stripes,
                                               std::size_t blocks, int p) {
  std::vector<enc::BlockRun> runs;
  const auto whole = [&](std::size_t s) { runs.push_back({s, 0, blocks}); };
  const std::size_t pairs = static_cast<std::size_t>(n) * stripes;
  const std::size_t last = stripes - 1;
  switch (pattern) {
    case DirtyPattern::kNothing: break;
    case DirtyPattern::kOneStripe:
      if (p == 1) whole(0);
      break;
    case DirtyPattern::kEveryLastStripe: whole(last); break;
    case DirtyPattern::kBelowHalf:
    case DirtyPattern::kAtHalf: {
      const std::size_t limit =
          pattern == DirtyPattern::kBelowHalf ? (pairs - 1) / 2 : (pairs + 1) / 2;
      for (std::size_t s = 0; s < stripes; ++s) {
        if (static_cast<std::size_t>(p) * stripes + s < limit) whole(s);
      }
      break;
    }
    case DirtyPattern::kOneBlock:
      if (p == 1) runs.push_back({0, 1, 2});
      break;
    case DirtyPattern::kStraddleSegment:
      if (p == 1) runs.push_back({0, 15, 17});
      break;
    case DirtyPattern::kShortLastBlock: runs.push_back({last, blocks - 1, blocks}); break;
    case DirtyPattern::kTwoRuns:
      if (p == 2) runs.insert(runs.end(), {{0, 0, 1}, {0, 5, 7}});
      if (p == 0) runs.insert(runs.end(), {{last, 2, 3}, {last, 20, blocks}});
      break;
    case DirtyPattern::kOverCapacity:
      if (p == 1) runs.insert(runs.end(), {{0, 0, 1}, {0, 3, 4}, {0, 10, 12}});
      break;
    case DirtyPattern::kFamilyOverlap:
      if (p == 1) runs.push_back({0, 0, 2});
      if (p == 2) runs.push_back({0, 1, 4});
      if (p == 3) runs.push_back({0, 6, 7});
      if (p >= 4) {
        const auto b = static_cast<std::size_t>(2 * p);
        runs.push_back({0, b, b + 1});
      }
      break;
    case DirtyPattern::kAll:
      for (std::size_t s = 0; s < stripes; ++s) whole(s);
      break;
  }
  return runs;
}

/// The runs the exchange carries for `runs`: at most kRunsPerStripe per
/// stripe, the two closest merged.
inline std::vector<enc::BlockRun> exchanged_runs(std::span<const enc::BlockRun> runs,
                                                 std::size_t stripe_bytes, std::size_t stripes) {
  enc::RunSet set(stripe_bytes, stripes);
  set.add(runs);
  return set.runs();
}

/// Bytes of `runs` over stripes of `stripe_bytes`.
inline std::size_t run_bytes(std::span<const enc::BlockRun> runs, std::size_t stripe_bytes) {
  std::size_t bytes = 0;
  for (const enc::BlockRun& run : runs) bytes += enc::run_bytes(run, stripe_bytes).size();
  return bytes;
}

/// Bytes the whole group exchanges as dirty: what a sparse delta moves
/// once per parity row.
inline std::size_t group_dirty_bytes(DirtyPattern pattern, int n, std::size_t stripe_bytes,
                                     std::size_t stripes) {
  const std::size_t blocks = enc::stripe_blocks(stripe_bytes);
  std::size_t bytes = 0;
  for (int p = 0; p < n; ++p) {
    bytes += run_bytes(
        exchanged_runs(pattern_runs(pattern, n, stripes, blocks, p), stripe_bytes, stripes),
        stripe_bytes);
  }
  return bytes;
}

/// Runs the whole group exchanges: what a sparse delta lends once per
/// parity row.
inline std::size_t group_dirty_runs(DirtyPattern pattern, int n, std::size_t stripe_bytes,
                                    std::size_t stripes) {
  const std::size_t blocks = enc::stripe_blocks(stripe_bytes);
  std::size_t runs = 0;
  for (int p = 0; p < n; ++p) {
    runs += exchanged_runs(pattern_runs(pattern, n, stripes, blocks, p), stripe_bytes, stripes)
                .size();
  }
  return runs;
}

/// The codecs' switch: less than half of the group's bytes dirty -> sparse.
inline bool takes_sparse_path(DirtyPattern pattern, int n, std::size_t stripe_bytes,
                              std::size_t stripes) {
  return 2 * group_dirty_bytes(pattern, n, stripe_bytes, stripes) <
         static_cast<std::size_t>(n) * stripes * stripe_bytes;
}

/// Union of the exchanged runs of the given (member, stripe) pairs, as
/// runs of stripe `out_stripe` of a redundancy buffer: what the owner of
/// those pairs' family sees change.
inline std::vector<enc::BlockRun> family_union(
    DirtyPattern pattern, int n, std::size_t stripe_bytes, std::size_t stripes,
    std::span<const std::pair<int, std::size_t>> pairs, std::size_t out_stripe) {
  const std::size_t blocks = enc::stripe_blocks(stripe_bytes);
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (const auto& [p, s] : pairs) {
    for (const enc::BlockRun& run :
         exchanged_runs(pattern_runs(pattern, n, stripes, blocks, p), stripe_bytes, stripes)) {
      if (run.stripe == s) ranges.emplace_back(run.first, run.end);
    }
  }
  std::sort(ranges.begin(), ranges.end());
  std::vector<enc::BlockRun> out;
  for (const auto& [first, end] : ranges) {
    if (!out.empty() && first <= out.back().end) {
      out.back().end = std::max(out.back().end, end);
    } else {
      out.push_back({out_stripe, first, end});
    }
  }
  return out;
}

/// One member's inputs: `base` and `next` padded buffers that differ on
/// exactly the declared runs, and those runs. Values are exactly
/// representable doubles, so the same bytes serve the XOR and SUM codecs.
struct DeltaInputs {
  std::vector<std::byte> base;
  std::vector<std::byte> next;
  std::vector<enc::BlockRun> runs;
};

inline DeltaInputs make_delta_inputs(DirtyPattern pattern, int n, int rank,
                                     std::size_t stripe_bytes, std::size_t stripes) {
  const auto fill = [](std::span<std::byte> out, std::uint64_t seed) {
    util::Xoshiro256 rng(seed);
    for (std::size_t i = 0; i + sizeof(double) <= out.size(); i += sizeof(double)) {
      const double v = static_cast<double>(rng.next() % 4096) / 64.0 - 32.0;
      std::memcpy(out.data() + i, &v, sizeof(double));
    }
  };
  DeltaInputs in;
  in.base.resize(stripe_bytes * stripes);
  fill(in.base, 100 + static_cast<std::uint64_t>(rank));
  in.next = in.base;
  in.runs = pattern_runs(pattern, n, stripes, enc::stripe_blocks(stripe_bytes), rank);
  std::uint64_t seed = 1000 + static_cast<std::uint64_t>(rank) * 64;
  for (const enc::BlockRun& run : in.runs) {
    const enc::ByteRange r = enc::run_bytes(run, stripe_bytes);
    fill(std::span<std::byte>(in.next).subspan(r.begin, r.size()), seed++);
  }
  return in;
}

}  // namespace skt::testing
