// Property tests for the vectorized kernel layer: every kernel must be
// BIT-IDENTICAL across dispatch tiers (the AVX2 lane is an optimization,
// never a semantic change), at every size and alignment a codec can throw
// at it — sub-lane tails, exact lanes, odd offsets into oversized
// allocations. Plus the RunSet and DirtyTracker unit contracts (the
// encode_delta == encode sweep over every code is in test_encoding.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "ckpt/dirty_tracker.hpp"
#include "ckpt/protocol.hpp"
#include "encoding/gf256.hpp"
#include "encoding/kernels.hpp"
#include "testing.hpp"
#include "util/rng.hpp"

namespace skt::enc {
namespace {

using skt::testing::TierGuard;

std::vector<std::byte> random_bytes(std::size_t size, std::uint64_t seed) {
  std::vector<std::byte> out(size);
  util::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < size; i += 8) {
    const std::uint64_t v = rng.next();
    std::memcpy(out.data() + i, &v, std::min<std::size_t>(8, size - i));
  }
  return out;
}

bool avx2_available() {
  const TierGuard guard(kernels::Tier::kAvx2);
  return kernels::active_tier() == kernels::Tier::kAvx2;
}

// Sizes crossing every code path: sub-lane, one lane (32B vectors, 64B
// unrolled blocks), multi-lane, and ragged tails past each.
constexpr std::size_t kSizes[] = {1,  2,  3,  7,  8,  15, 16,  31,  32,  33,
                                  63, 64, 65, 95, 96, 97, 255, 256, 1037};
constexpr std::size_t kOffsets[] = {0, 1, 3, 17};  // misalign inside a big buffer

class KernelTierEquivalence : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!avx2_available()) {
      GTEST_SKIP() << "AVX2 tier not compiled in or not supported on this CPU";
    }
  }
};

TEST_F(KernelTierEquivalence, XorAcc) {
  for (const std::size_t size : kSizes) {
    for (const std::size_t off : kOffsets) {
      const auto acc0 = random_bytes(size + off, 1000 + size);
      const auto in = random_bytes(size + off, 2000 + size);
      auto scalar = acc0;
      auto simd = acc0;
      {
        const TierGuard g(kernels::Tier::kScalar);
        kernels::xor_acc(std::span(scalar).subspan(off), std::span<const std::byte>(in).subspan(off));
      }
      {
        const TierGuard g(kernels::Tier::kAvx2);
        kernels::xor_acc(std::span(simd).subspan(off), std::span<const std::byte>(in).subspan(off));
      }
      ASSERT_EQ(scalar, simd) << "size=" << size << " off=" << off;
      // Sanity against the definition, not just cross-tier agreement.
      for (std::size_t i = off; i < size + off; ++i) {
        ASSERT_EQ(scalar[i], acc0[i] ^ in[i]) << "size=" << size << " i=" << i;
      }
    }
  }
}

TEST_F(KernelTierEquivalence, XorDelta) {
  for (const std::size_t size : kSizes) {
    for (const std::size_t off : kOffsets) {
      const auto a = random_bytes(size + off, 3000 + size);
      const auto b = random_bytes(size + off, 4000 + size);
      std::vector<std::byte> scalar(size + off), simd(size + off);
      {
        const TierGuard g(kernels::Tier::kScalar);
        kernels::xor_delta(std::span(scalar).subspan(off),
                           std::span<const std::byte>(a).subspan(off),
                           std::span<const std::byte>(b).subspan(off));
      }
      {
        const TierGuard g(kernels::Tier::kAvx2);
        kernels::xor_delta(std::span(simd).subspan(off),
                           std::span<const std::byte>(a).subspan(off),
                           std::span<const std::byte>(b).subspan(off));
      }
      ASSERT_EQ(scalar, simd) << "size=" << size << " off=" << off;
    }
  }
}

TEST_F(KernelTierEquivalence, XorDeltaAliasingOut) {
  // The staging path computes diffs in place: out aliases a (and, for
  // symmetry, b). Both tiers must tolerate it.
  for (const std::size_t size : {std::size_t{31}, std::size_t{64}, std::size_t{97}}) {
    const auto a0 = random_bytes(size, 71);
    const auto b = random_bytes(size, 72);
    for (const kernels::Tier tier : {kernels::Tier::kScalar, kernels::Tier::kAvx2}) {
      const TierGuard g(tier);
      auto out_a = a0;  // out == a
      kernels::xor_delta(out_a, out_a, b);
      auto out_b = b;  // out == b
      kernels::xor_delta(out_b, a0, out_b);
      for (std::size_t i = 0; i < size; ++i) {
        ASSERT_EQ(out_a[i], a0[i] ^ b[i]) << "tier=" << to_string(tier) << " i=" << i;
        ASSERT_EQ(out_b[i], a0[i] ^ b[i]) << "tier=" << to_string(tier) << " i=" << i;
      }
    }
  }
}

TEST_F(KernelTierEquivalence, SumAccAndSub) {
  // Element-wise adds happen in the same order in both tiers, so the
  // comparison is exact, not tolerance-based.
  constexpr std::size_t kCounts[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 130};
  for (const std::size_t n : kCounts) {
    util::Xoshiro256 rng(500 + n);
    std::vector<double> acc0(n), in(n);
    for (std::size_t i = 0; i < n; ++i) {
      acc0[i] = static_cast<double>(static_cast<std::int64_t>(rng.next() >> 16)) * 1e-5;
      in[i] = static_cast<double>(static_cast<std::int64_t>(rng.next() >> 16)) * 1e-7;
    }
    auto s_acc = acc0;
    auto v_acc = acc0;
    {
      const TierGuard g(kernels::Tier::kScalar);
      kernels::sum_acc(s_acc, in);
      kernels::sum_sub(s_acc, in);
      kernels::sum_acc(s_acc, in);
    }
    {
      const TierGuard g(kernels::Tier::kAvx2);
      kernels::sum_acc(v_acc, in);
      kernels::sum_sub(v_acc, in);
      kernels::sum_acc(v_acc, in);
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(s_acc[i], v_acc[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST_F(KernelTierEquivalence, Gf256MulAcc) {
  const std::uint8_t coeffs[] = {0, 1, 2, 3, 0x1d, 0x53, 0x80, 0xfe, 0xff};
  for (const std::uint8_t coeff : coeffs) {
    for (const std::size_t size : kSizes) {
      for (const std::size_t off : {std::size_t{0}, std::size_t{5}}) {
        const auto out0 = random_bytes(size + off, 6000 + size + coeff);
        const auto in = random_bytes(size + off, 7000 + size + coeff);
        auto scalar = out0;
        auto simd = out0;
        const auto u8 = [](std::vector<std::byte>& v, std::size_t skip) {
          return std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(v.data()) + skip,
                                         v.size() - skip);
        };
        const auto cu8 = [](const std::vector<std::byte>& v, std::size_t skip) {
          return std::span<const std::uint8_t>(
              reinterpret_cast<const std::uint8_t*>(v.data()) + skip, v.size() - skip);
        };
        {
          const TierGuard g(kernels::Tier::kScalar);
          kernels::gf256_mul_acc(u8(scalar, off), cu8(in, off), coeff);
        }
        {
          const TierGuard g(kernels::Tier::kAvx2);
          kernels::gf256_mul_acc(u8(simd, off), cu8(in, off), coeff);
        }
        ASSERT_EQ(scalar, simd) << "coeff=" << int(coeff) << " size=" << size << " off=" << off;
        // And against the field-arithmetic reference.
        for (std::size_t i = off; i < size + off; ++i) {
          const auto expect = static_cast<std::uint8_t>(
              std::to_integer<std::uint8_t>(out0[i]) ^
              gf256::mul(coeff, std::to_integer<std::uint8_t>(in[i])));
          ASSERT_EQ(std::to_integer<std::uint8_t>(scalar[i]), expect)
              << "coeff=" << int(coeff) << " i=" << i;
        }
      }
    }
  }
}

TEST(Kernels, ForceTierReturnsPrevious) {
  const kernels::Tier original = kernels::active_tier();
  const kernels::Tier prev = kernels::force_tier(kernels::Tier::kScalar);
  EXPECT_EQ(prev, original);
  EXPECT_EQ(kernels::active_tier(), kernels::Tier::kScalar);
  kernels::force_tier(original);
  EXPECT_EQ(kernels::active_tier(), original);
}

TEST(Kernels, ScalarTierAlwaysAvailable) {
  const TierGuard g(kernels::Tier::kScalar);
  EXPECT_EQ(kernels::active_tier(), kernels::Tier::kScalar);
  std::vector<std::byte> a(17, std::byte{0x5a});
  const std::vector<std::byte> b(17, std::byte{0xa5});
  kernels::xor_acc(a, b);
  EXPECT_TRUE(std::all_of(a.begin(), a.end(), [](std::byte v) { return v == std::byte{0xff}; }));
}

}  // namespace
}  // namespace skt::enc

// ----------------------------------------------------------------------
// RunSet and DirtyTracker: the block-run contract every protocol builds
// its staging, flush and delta-encode decisions on.
namespace skt::ckpt {
namespace {

using enc::BlockRun;
using enc::kBlockBytes;

using Runs = std::vector<BlockRun>;

TEST(RunSet, JoinsTouchingRunsAndMergesTheClosestPairOverCapacity) {
  // 10 blocks per stripe, 2 stripes.
  enc::RunSet set(10 * kBlockBytes, 2);
  set.add({0, 2, 4});
  set.add({0, 4, 5});  // touches: joins
  EXPECT_EQ(set.runs(), (Runs{{0, 2, 5}}));
  set.add({0, 9, 10});
  set.add({1, 0, 1});
  EXPECT_EQ(set.runs(), (Runs{{0, 2, 5}, {0, 9, 10}, {1, 0, 1}}));
  // A third run in stripe 0: [0, 1) sits 1 block before [2, 5), which
  // sits 4 blocks before [9, 10), so the closest pair merges across its
  // 1-block gap.
  set.add({0, 0, 1});
  EXPECT_EQ(set.runs(), (Runs{{0, 0, 5}, {0, 9, 10}, {1, 0, 1}}));
  set.add({0, 7, 8});  // gaps 2 and 1: [7, 8) joins [9, 10)
  EXPECT_EQ(set.runs(), (Runs{{0, 0, 5}, {0, 7, 10}, {1, 0, 1}}));
  set.add({0, 3, 8});  // overlaps both: one run
  EXPECT_EQ(set.runs(), (Runs{{0, 0, 10}, {1, 0, 1}}));
  set.add({1, 1, 1});  // empty: no-op
  EXPECT_EQ(set.runs().size(), 2u);
  EXPECT_THROW(set.add({2, 0, 1}), std::out_of_range);
  EXPECT_THROW(set.add({0, 3, 11}), std::out_of_range);
  set.clear();
  EXPECT_TRUE(set.runs().empty());
  set.add_all();
  EXPECT_EQ(set.runs(), (Runs{{0, 0, 10}, {1, 0, 10}}));
}

TEST(RunSet, RejectsStripesBeyondTheExchangeBound) {
  // The exchange stores block indices as uint16: a longer stripe is an
  // error when the set is built, never a silent truncation.
  EXPECT_NO_THROW(enc::RunSet(enc::kMaxStripeBlocks * kBlockBytes, 1));
  EXPECT_THROW(enc::RunSet((enc::kMaxStripeBlocks + 1) * kBlockBytes, 1), std::length_error);
  DirtyTracker t;
  EXPECT_THROW(t.reset(1, 1, (enc::kMaxStripeBlocks + 1) * kBlockBytes, 1), std::length_error);
}

// A 3-stripe image whose stripes are 10000 bytes: blocks 0 and 1 whole,
// block 2 short (1808 bytes). Data [0, 25000), user tail [25000, 25064)
// in stripe 2's block 1.
constexpr std::size_t kStripe = 10000;
constexpr std::size_t kShort = kStripe - 2 * kBlockBytes;

DirtyTracker three_stripes() {
  DirtyTracker t;
  t.reset(/*data=*/25000, /*user=*/64, kStripe, /*count=*/3);
  return t;
}

TEST(DirtyTracker, UnannotatedReportsOneWholeRunPerStripe) {
  DirtyTracker t = three_stripes();
  EXPECT_FALSE(t.annotated());
  EXPECT_EQ(t.stripe_count(), 3u);
  EXPECT_EQ(t.stripe_bytes(), kStripe);
  const Runs runs = t.runs();
  EXPECT_EQ(runs, (Runs{{0, 0, 3}, {1, 0, 3}, {2, 0, 3}}));
  CommitStats stats;
  t.account(runs, stats);
  EXPECT_EQ(stats.dirty_bytes, 3 * kStripe);
  EXPECT_DOUBLE_EQ(stats.dirty_fraction, 1.0);
}

TEST(DirtyTracker, UserTailOnlyDirtiesItsBlock) {
  DirtyTracker t = three_stripes();
  t.mark_user_tail();
  // Tail marking is a protocol invariant, not an application opt-in: the
  // tracker stays in all-dirty fallback mode.
  EXPECT_FALSE(t.annotated());
  EXPECT_EQ(t.runs().size(), 3u);
  t.clear();
  t.mark(0, 1);
  t.mark_user_tail();
  EXPECT_TRUE(t.annotated());
  // Tail [25000, 25064) = stripe 2, bytes [5000, 5064): block 1.
  EXPECT_EQ(t.runs(), (Runs{{0, 0, 1}, {2, 1, 2}}));
  CommitStats stats;
  t.account(t.runs(), stats);
  EXPECT_EQ(stats.dirty_bytes, 2 * kBlockBytes);
  EXPECT_DOUBLE_EQ(stats.dirty_fraction, 2.0 / 3.0);
}

TEST(DirtyTracker, MarkStraddlingTwoStripesDirtiesABlockOfEach) {
  DirtyTracker t = three_stripes();
  t.mark(kStripe - 10, 20);  // the short block 2 of stripe 0, block 0 of stripe 1
  EXPECT_EQ(t.runs(), (Runs{{0, 2, 3}, {1, 0, 1}}));
  CommitStats stats;
  t.account(t.runs(), stats);
  EXPECT_EQ(stats.dirty_bytes, kShort + kBlockBytes);  // block-exact
  EXPECT_DOUBLE_EQ(stats.dirty_fraction, 2.0 / 3.0);
}

TEST(DirtyTracker, ShortLastBlockCountsItsOwnSize) {
  DirtyTracker t = three_stripes();
  t.mark(kStripe + 2 * kBlockBytes + 8, 8);  // inside stripe 1's short block
  EXPECT_EQ(t.runs(), (Runs{{1, 2, 3}}));
  CommitStats stats;
  t.account(t.runs(), stats);
  EXPECT_EQ(stats.dirty_bytes, kShort);
  EXPECT_DOUBLE_EQ(stats.dirty_fraction, 1.0 / 3.0);
  // An unaligned 4 KiB mark inside one stripe covers exactly two blocks.
  t.clear();
  t.mark(100, kBlockBytes);
  EXPECT_EQ(t.runs(), (Runs{{0, 0, 2}}));
}

TEST(DirtyTracker, MarkAllIsAnnotatedAndWhole) {
  DirtyTracker t = three_stripes();
  t.mark_all();
  EXPECT_TRUE(t.annotated());
  EXPECT_EQ(t.runs(), (Runs{{0, 0, 3}, {1, 0, 3}, {2, 0, 3}}));
  CommitStats stats;
  t.account(t.runs(), stats);
  EXPECT_EQ(stats.dirty_bytes, 3 * kStripe);
  EXPECT_DOUBLE_EQ(stats.dirty_fraction, 1.0);
  // The empty set accounts as nothing dirty, for every protocol alike.
  t.account({}, stats);
  EXPECT_EQ(stats.dirty_bytes, 0u);
  EXPECT_DOUBLE_EQ(stats.dirty_fraction, 0.0);
}

TEST(DirtyTracker, MarkBoundsAreLoud) {
  DirtyTracker t = three_stripes();
  EXPECT_THROW(t.mark(25000, 1), std::out_of_range);
  EXPECT_THROW(t.mark(24995, 10), std::out_of_range);
  t.mark(24999, 0);  // len == 0 is a no-op, not an annotation
  EXPECT_FALSE(t.annotated());
  t.mark(24999, 1);  // last valid byte
  EXPECT_TRUE(t.annotated());
}

TEST(DirtyTracker, ResetRejectsUncoveredImage) {
  // The loud-coverage invariant: geometry that cannot hold data + user is
  // an error at reset() time, so no mark can ever fall off the end.
  DirtyTracker t;
  EXPECT_THROW(t.reset(1000, 64, 256, 4), std::invalid_argument);  // 1024 < 1064
  EXPECT_THROW(t.reset(1, 1, 0, 4), std::invalid_argument);
  EXPECT_THROW(t.reset(1, 1, 256, 0), std::invalid_argument);
  t.reset(1000, 24, 256, 4);  // exactly covered
  EXPECT_NO_THROW(t.mark(999, 1));
  EXPECT_NO_THROW(t.mark_user_tail());
}

TEST(DirtyTracker, ClearDropsRunsAndAnnotation) {
  DirtyTracker t = three_stripes();
  t.mark(0, 1);
  EXPECT_TRUE(t.annotated());
  t.clear();
  EXPECT_FALSE(t.annotated());
  EXPECT_EQ(t.runs().size(), 3u);  // back to the safe fallback
}

}  // namespace
}  // namespace skt::ckpt
