// Dirty patterns over a group's (member, stripe) pairs for the
// encode_delta == encode equivalence tests of both group codecs. Every
// flag is a pure function of (member, stripe), so each member can evaluate
// every other member's flags and predict what the delta encode must do.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace skt::testing {

enum class DirtyPattern {
  kNothing,          ///< no pair dirty
  kOneStripe,        ///< member 1's stripe 0 only
  kEveryLastStripe,  ///< every member's last stripe
  kBelowHalf,        ///< the most dirty pairs that still take the sparse path
  kAtHalf,           ///< the fewest dirty pairs that take the ring encode
};

inline constexpr DirtyPattern kDirtyPatterns[] = {
    DirtyPattern::kNothing, DirtyPattern::kOneStripe, DirtyPattern::kEveryLastStripe,
    DirtyPattern::kBelowHalf, DirtyPattern::kAtHalf};

inline const char* to_string(DirtyPattern pattern) {
  switch (pattern) {
    case DirtyPattern::kNothing: return "nothing";
    case DirtyPattern::kOneStripe: return "one_stripe";
    case DirtyPattern::kEveryLastStripe: return "every_last_stripe";
    case DirtyPattern::kBelowHalf: return "below_half";
    case DirtyPattern::kAtHalf: return "at_half";
  }
  return "?";
}

/// True when member `p`'s local stripe `s` is dirty; `stripes` per member.
inline bool pair_dirty(DirtyPattern pattern, int n, std::size_t stripes, int p, std::size_t s) {
  const std::size_t pairs = static_cast<std::size_t>(n) * stripes;
  const std::size_t q = static_cast<std::size_t>(p) * stripes + s;
  switch (pattern) {
    case DirtyPattern::kNothing: return false;
    case DirtyPattern::kOneStripe: return p == 1 && s == 0;
    case DirtyPattern::kEveryLastStripe: return s + 1 == stripes;
    case DirtyPattern::kBelowHalf: return q < (pairs - 1) / 2;
    case DirtyPattern::kAtHalf: return q < (pairs + 1) / 2;
  }
  return false;
}

inline std::size_t dirty_pair_count(DirtyPattern pattern, int n, std::size_t stripes) {
  std::size_t count = 0;
  for (int p = 0; p < n; ++p) {
    for (std::size_t s = 0; s < stripes; ++s) count += pair_dirty(pattern, n, stripes, p, s);
  }
  return count;
}

/// The codecs' switch: fewer than half of the pairs dirty -> sparse path.
inline bool takes_sparse_path(DirtyPattern pattern, int n, std::size_t stripes) {
  return 2 * dirty_pair_count(pattern, n, stripes) < static_cast<std::size_t>(n) * stripes;
}

/// One member's inputs: `base` and `next` padded buffers that differ on
/// exactly the dirty stripes, and the member's flags. Values are exactly
/// representable doubles, so the same bytes serve the XOR and SUM codecs.
struct DeltaInputs {
  std::vector<std::byte> base;
  std::vector<std::byte> next;
  std::vector<std::uint8_t> flags;
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
  in.flags.assign(stripes, 0);
  for (std::size_t s = 0; s < stripes; ++s) {
    if (!pair_dirty(pattern, n, stripes, rank, s)) continue;
    in.flags[s] = 1;
    fill(std::span<std::byte>(in.next).subspan(s * stripe_bytes, stripe_bytes),
         1000 + static_cast<std::uint64_t>(rank) * 64 + s);
  }
  return in;
}

}  // namespace skt::testing
