// Property tests for the vectorized kernel layer: every kernel must be
// BIT-IDENTICAL across dispatch tiers (the AVX2 lane is an optimization,
// never a semantic change), at every size and alignment a codec can throw
// at it — sub-lane tails, exact lanes, odd offsets into oversized
// allocations. Plus the DirtyTracker unit contract and the
// encode_delta == encode equivalence the dirty-stripe commits rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "ckpt/dirty_tracker.hpp"
#include "dirty_patterns.hpp"
#include "encoding/gf256.hpp"
#include "encoding/group_codec.hpp"
#include "encoding/kernels.hpp"
#include "testing.hpp"
#include "util/rng.hpp"

namespace skt::enc {
namespace {

using skt::testing::MiniCluster;
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
// DirtyTracker: the shared annotation contract every protocol now builds
// its staging and delta-encode decisions on.
namespace skt::ckpt {
namespace {

TEST(DirtyTracker, UnannotatedReportsAllDirty) {
  DirtyTracker t;
  t.reset(/*data=*/1000, /*user=*/64, /*stripe=*/256, /*count=*/5);
  EXPECT_FALSE(t.annotated());
  const auto eff = t.effective();
  EXPECT_EQ(eff.size(), 5u);
  EXPECT_TRUE(std::all_of(eff.begin(), eff.end(), [](std::uint8_t f) { return f == 1; }));
  EXPECT_EQ(t.dirty_stripes(), 5u);
  EXPECT_DOUBLE_EQ(t.dirty_fraction(), 1.0);
}

TEST(DirtyTracker, MarkFlagsExactlyTheCoveredStripes) {
  DirtyTracker t;
  t.reset(1000, 64, 256, 5);
  t.mark(300, 10);  // inside stripe 1
  EXPECT_TRUE(t.annotated());
  const auto eff = t.effective();
  EXPECT_EQ(eff, (std::vector<std::uint8_t>{0, 1, 0, 0, 0}));
  t.mark(255, 2);  // straddles stripes 0 and 1
  EXPECT_EQ(t.effective(), (std::vector<std::uint8_t>{1, 1, 0, 0, 0}));
  EXPECT_EQ(t.dirty_stripes(), 2u);
  EXPECT_EQ(t.dirty_bytes(), 512u);
  EXPECT_DOUBLE_EQ(t.dirty_fraction(), 2.0 / 5.0);
}

TEST(DirtyTracker, MarkBoundsAreLoud) {
  DirtyTracker t;
  t.reset(1000, 64, 256, 5);
  EXPECT_THROW(t.mark(1000, 1), std::out_of_range);
  EXPECT_THROW(t.mark(995, 10), std::out_of_range);
  t.mark(999, 0);  // len == 0 is a no-op, not an annotation
  EXPECT_FALSE(t.annotated());
  t.mark(999, 1);  // last valid byte
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

TEST(DirtyTracker, UserTailMarksButPreservesAnnotationState) {
  DirtyTracker t;
  t.reset(1000, 64, 256, 5);
  t.mark_user_tail();
  // Tail marking is a protocol invariant, not an application opt-in: the
  // tracker must stay in all-dirty fallback mode.
  EXPECT_FALSE(t.annotated());
  EXPECT_EQ(t.dirty_stripes(), 5u);
  t.mark(0, 1);
  t.mark_user_tail();
  EXPECT_TRUE(t.annotated());
  // Tail [1000, 1064) lives in stripes 3 and 4.
  EXPECT_EQ(t.effective(), (std::vector<std::uint8_t>{1, 0, 0, 1, 1}));
}

TEST(DirtyTracker, ClearDropsFlagsAndAnnotation) {
  DirtyTracker t;
  t.reset(1000, 64, 256, 5);
  t.mark_all();
  EXPECT_TRUE(t.annotated());
  t.clear();
  EXPECT_FALSE(t.annotated());
  EXPECT_DOUBLE_EQ(t.dirty_fraction(), 1.0);  // back to the safe fallback
}

}  // namespace
}  // namespace skt::ckpt

// ----------------------------------------------------------------------
// encode_delta == encode: the bit-identity (tolerance for SUM) the
// dirty-stripe commit path stakes checkpoint correctness on, for the
// XOR/SUM group codec on both sides of the half-dirty switch (the RS(k, m)
// sweep lives in test_encoding.cpp).
namespace skt::enc {
namespace {

using skt::testing::DirtyPattern;
using skt::testing::DeltaInputs;

/// Stripes that span two 64 KiB collective segments plus a ragged
/// 1000-byte tail, so the sparse reduce streams several segments.
std::size_t sweep_data_bytes(int n) {
  return static_cast<std::size_t>(n - 1) * (2 * mpi::kCollectiveChunkBytes + 1000) - 5;
}

class EncodeDeltaSweep : public ::testing::TestWithParam<std::tuple<int, CodecKind>> {};

TEST_P(EncodeDeltaSweep, MatchesFullEncodeForEveryPattern) {
  const auto [n, kind] = GetParam();
  for (const DirtyPattern pattern : skt::testing::kDirtyPatterns) {
    MiniCluster mc(n, 0);
    const auto result = mc.run(n, [&](mpi::Comm& world) {
      const GroupCodec codec(kind, sweep_data_bytes(n), n);
      const std::size_t stripe = codec.layout().stripe_bytes();
      const auto stripes = static_cast<std::size_t>(n - 1);
      ASSERT_GT(stripe, 2 * mpi::kCollectiveChunkBytes);
      const DeltaInputs in =
          skt::testing::make_delta_inputs(pattern, n, world.rank(), stripe, stripes);
      std::vector<std::byte> old_check(codec.checksum_bytes());
      codec.encode(world, in.base, old_check);
      std::vector<std::byte> reference(codec.checksum_bytes());
      codec.encode(world, in.next, reference);

      std::vector<std::byte> in_place = old_check;
      const bool aliased =
          codec.encode_delta(world, in.base, in.next, in_place, in_place, in.flags);
      std::vector<std::byte> out(codec.checksum_bytes());
      const bool distinct = codec.encode_delta(world, in.base, in.next, old_check, out, in.flags);
      for (const auto* got : {&in_place, &out}) {
        if (kind == CodecKind::kXor) {
          EXPECT_EQ(*got, reference) << to_string(pattern);
        } else {
          EXPECT_TRUE(equals(kind, *got, reference)) << to_string(pattern);
        }
      }

      // What every member can predict from the pattern: whether its own
      // family has a dirty contributor, so its checksum moves.
      bool mine_dirty = false;
      for (int p = 0; p < n; ++p) {
        const int f = world.rank();
        mine_dirty |= p != f && skt::testing::pair_dirty(pattern, n, stripes, p,
                                                         codec.layout().stripe_index(p, f));
      }
      const bool sparse = skt::testing::takes_sparse_path(pattern, n, stripes);
      EXPECT_EQ(aliased, !sparse || mine_dirty) << to_string(pattern);
      EXPECT_EQ(distinct, aliased) << to_string(pattern);
    });
    ASSERT_TRUE(result.completed) << result.abort_reason;
  }
}

TEST_P(EncodeDeltaSweep, SparseWireBytesAreDirtyPairsTimesStripe) {
  const auto [n, kind] = GetParam();
  const auto stripes = static_cast<std::size_t>(n - 1);
  const GroupCodec probe(kind, sweep_data_bytes(n), n);
  // Two jobs that differ only in their last collective: the delta encode,
  // or an allgather of the same flags (its first step). The difference in
  // job-wide wire bytes is the sparse reduce's payload alone.
  const auto job_wire_bytes = [&](DirtyPattern pattern, bool delta) {
    MiniCluster mc(n, 0);
    const auto result = mc.run(n, [&](mpi::Comm& world) {
      const GroupCodec codec(kind, sweep_data_bytes(n), n);
      const DeltaInputs in = skt::testing::make_delta_inputs(
          pattern, n, world.rank(), codec.layout().stripe_bytes(), stripes);
      std::vector<std::byte> check(codec.checksum_bytes());
      codec.encode(world, in.base, check);
      if (delta) {
        codec.encode_delta(world, in.base, in.next, check, check, in.flags);
      } else {
        (void)world.allgather<std::uint8_t>(in.flags);
      }
    });
    EXPECT_TRUE(result.completed) << result.abort_reason;
    return result.wire_bytes;
  };
  for (const DirtyPattern pattern : skt::testing::kDirtyPatterns) {
    if (!skt::testing::takes_sparse_path(pattern, n, stripes)) continue;
    EXPECT_EQ(job_wire_bytes(pattern, true) - job_wire_bytes(pattern, false),
              skt::testing::dirty_pair_count(pattern, n, stripes) *
                  probe.layout().stripe_bytes())
        << to_string(pattern);
  }
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, EncodeDeltaSweep,
                         ::testing::Combine(::testing::Values(3, 4, 8),
                                            ::testing::Values(CodecKind::kXor,
                                                              CodecKind::kSum)),
                         [](const auto& info) {
                           return "g" + std::to_string(std::get<0>(info.param)) + "_" +
                                  std::string(to_string(std::get<1>(info.param)));
                         });

}  // namespace
}  // namespace skt::enc
