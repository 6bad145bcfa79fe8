#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dirty_patterns.hpp"
#include "encoding/codec.hpp"
#include "encoding/erasure_coder.hpp"
#include "encoding/gf256.hpp"
#include "encoding/group_codec.hpp"
#include "encoding/reed_solomon.hpp"
#include "encoding/rs_group.hpp"
#include "encoding/stripes.hpp"
#include "testing.hpp"
#include "util/rng.hpp"

namespace skt::enc {
namespace {

using skt::testing::MiniCluster;

std::vector<std::byte> random_bytes(std::size_t size, std::uint64_t seed) {
  std::vector<std::byte> out(size);
  util::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < size; i += 8) {
    const std::uint64_t v = rng.next();
    std::memcpy(out.data() + i, &v, std::min<std::size_t>(8, size - i));
  }
  return out;
}

// ---------------------------------------------------------------- codec ---

TEST(Codec, XorAccumulateIsSelfInverse) {
  auto a = random_bytes(64, 1);
  const auto original = a;
  const auto b = random_bytes(64, 2);
  accumulate(CodecKind::kXor, a, b);
  EXPECT_NE(a, original);
  accumulate(CodecKind::kXor, a, b);
  EXPECT_EQ(a, original);
}

TEST(Codec, SumAccumulateAdds) {
  std::vector<double> av{1.0, 2.0, 3.0};
  std::vector<double> bv{0.5, 0.25, -1.0};
  auto a = std::as_writable_bytes(std::span<double>(av));
  const auto b = std::as_bytes(std::span<const double>(bv));
  accumulate(CodecKind::kSum, a, b);
  EXPECT_DOUBLE_EQ(av[0], 1.5);
  EXPECT_DOUBLE_EQ(av[1], 2.25);
  EXPECT_DOUBLE_EQ(av[2], 2.0);
}

TEST(Codec, RejectsMisalignedOrMismatched) {
  std::vector<std::byte> a(16);
  std::vector<std::byte> b(8);
  EXPECT_THROW(accumulate(CodecKind::kXor, a, b), std::invalid_argument);
  std::vector<std::byte> c(12);
  std::vector<std::byte> d(12);
  EXPECT_THROW(accumulate(CodecKind::kXor, c, d), std::invalid_argument);
}

TEST(Codec, EqualsXorExactSumTolerant) {
  auto a = random_bytes(32, 3);
  auto b = a;
  EXPECT_TRUE(equals(CodecKind::kXor, a, b));
  b[0] ^= std::byte{1};
  EXPECT_FALSE(equals(CodecKind::kXor, a, b));

  std::vector<double> xv{1.0, 2.0};
  std::vector<double> yv{1.0 + 1e-13, 2.0};
  EXPECT_TRUE(equals(CodecKind::kSum, std::as_bytes(std::span<const double>(xv)),
                     std::as_bytes(std::span<const double>(yv))));
  yv[0] = 1.1;
  EXPECT_FALSE(equals(CodecKind::kSum, std::as_bytes(std::span<const double>(xv)),
                      std::as_bytes(std::span<const double>(yv))));
}

// -------------------------------------------------------------- stripes ---

TEST(Stripes, LayoutSizes) {
  const StripeLayout layout(1000, 5);  // 4 stripes of ceil(1000/4)=250 -> 256 padded? 250->256
  EXPECT_EQ(layout.stripe_bytes() % kLane, 0u);
  EXPECT_GE(layout.stripe_bytes() * 4, 1000u);
  EXPECT_EQ(layout.padded_bytes(), layout.stripe_bytes() * 4);
}

TEST(Stripes, StripeIndexSkipsOwnFamily) {
  const StripeLayout layout(64, 4);
  EXPECT_EQ(layout.stripe_index(2, 0), 0u);
  EXPECT_EQ(layout.stripe_index(2, 1), 1u);
  EXPECT_EQ(layout.stripe_index(2, 3), 2u);
  EXPECT_THROW((void)layout.stripe_index(2, 2), std::invalid_argument);
  EXPECT_THROW((void)layout.stripe_index(2, 9), std::out_of_range);
}

TEST(Stripes, ViewsPartitionTheBuffer) {
  const StripeLayout layout(64, 3);
  std::vector<std::byte> buf(layout.padded_bytes());
  const auto s0 = layout.stripe(std::span<std::byte>(buf), 1, 0);
  const auto s2 = layout.stripe(std::span<std::byte>(buf), 1, 2);
  EXPECT_EQ(s0.data(), buf.data());
  EXPECT_EQ(s2.data(), buf.data() + layout.stripe_bytes());
  EXPECT_THROW((void)layout.stripe(std::span<std::byte>(buf).subspan(1), 1, 0),
               std::invalid_argument);
}

TEST(Stripes, RejectsTinyGroups) { EXPECT_THROW(StripeLayout(64, 1), std::invalid_argument); }

// ---------------------------------------------------------------- gf256 ---

TEST(Gf256, FieldAxiomsSpotChecks) {
  using namespace gf256;
  EXPECT_EQ(mul(0, 77), 0);
  EXPECT_EQ(mul(1, 77), 77);
  for (int a = 1; a < 256; ++a) {
    const auto ua = static_cast<std::uint8_t>(a);
    EXPECT_EQ(mul(ua, inv(ua)), 1) << a;
  }
  // Commutativity + associativity samples.
  for (int a = 1; a < 256; a += 37) {
    for (int b = 1; b < 256; b += 29) {
      const auto ua = static_cast<std::uint8_t>(a);
      const auto ub = static_cast<std::uint8_t>(b);
      EXPECT_EQ(mul(ua, ub), mul(ub, ua));
      EXPECT_EQ(mul(mul(ua, ub), 7), mul(ua, mul(ub, 7)));
    }
  }
  EXPECT_EQ(div(mul(12, 9), 9), 12);
  EXPECT_EQ(pow(2, 0), 1);
  EXPECT_EQ(pow(2, 1), 2);
  EXPECT_EQ(pow(2, 8), mul(pow(2, 4), pow(2, 4)));
  EXPECT_THROW((void)inv(0), std::domain_error);
  EXPECT_THROW((void)div(1, 0), std::domain_error);
}

TEST(Gf256, SolveLinearSystem) {
  // 2x2 system with known solution.
  std::vector<std::uint8_t> m{1, 2, 3, 4};
  const std::uint8_t x0 = 5;
  const std::uint8_t x1 = 9;
  std::vector<std::uint8_t> rhs{
      static_cast<std::uint8_t>(gf256::mul(1, x0) ^ gf256::mul(2, x1)),
      static_cast<std::uint8_t>(gf256::mul(3, x0) ^ gf256::mul(4, x1))};
  ASSERT_TRUE(gf256::solve(m, rhs, 2));
  EXPECT_EQ(rhs[0], x0);
  EXPECT_EQ(rhs[1], x1);
}

TEST(Gf256, SolveDetectsSingular) {
  std::vector<std::uint8_t> m{1, 2, 1, 2};  // rank 1
  std::vector<std::uint8_t> rhs{3, 3};
  EXPECT_FALSE(gf256::solve(m, rhs, 2));
}

// --------------------------------------------------------- reed-solomon ---

class ReedSolomonErasures : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ReedSolomonErasures, AnyErasurePatternUpToMRecovers) {
  const auto [k, m] = GetParam();
  const std::size_t shard_size = 96;
  const ReedSolomon rs(k, m);

  std::vector<std::vector<std::uint8_t>> shards(static_cast<std::size_t>(k + m));
  std::vector<std::span<const std::uint8_t>> data_views;
  std::vector<std::span<std::uint8_t>> parity_views;
  util::Xoshiro256 rng(static_cast<std::uint64_t>(k * 100 + m));
  for (int i = 0; i < k; ++i) {
    auto& shard = shards[static_cast<std::size_t>(i)];
    shard.resize(shard_size);
    for (auto& b : shard) b = static_cast<std::uint8_t>(rng.next());
    data_views.emplace_back(shard);
  }
  for (int j = 0; j < m; ++j) {
    shards[static_cast<std::size_t>(k + j)].resize(shard_size);
    parity_views.emplace_back(shards[static_cast<std::size_t>(k + j)]);
  }
  rs.encode(data_views, parity_views);
  const auto golden = shards;

  // Exhaustively erase every subset of size 1..m (k+m is small here).
  const int total = k + m;
  for (int mask = 1; mask < (1 << total); ++mask) {
    if (__builtin_popcount(static_cast<unsigned>(mask)) > m) continue;
    auto work = golden;
    std::vector<bool> present(static_cast<std::size_t>(total), true);
    std::vector<std::span<std::uint8_t>> views;
    for (int i = 0; i < total; ++i) {
      if (mask & (1 << i)) {
        std::fill(work[static_cast<std::size_t>(i)].begin(),
                  work[static_cast<std::size_t>(i)].end(), std::uint8_t{0xEE});
        present[static_cast<std::size_t>(i)] = false;
      }
      views.emplace_back(work[static_cast<std::size_t>(i)]);
    }
    ASSERT_TRUE(rs.reconstruct(views, present)) << "mask " << mask;
    for (int i = 0; i < total; ++i) {
      ASSERT_EQ(work[static_cast<std::size_t>(i)], golden[static_cast<std::size_t>(i)])
          << "shard " << i << " mask " << mask;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ReedSolomonErasures,
                         ::testing::Values(std::make_tuple(2, 1), std::make_tuple(3, 2),
                                           std::make_tuple(4, 2), std::make_tuple(5, 3),
                                           std::make_tuple(7, 3)));

TEST(ReedSolomon, TooManyErasuresRejected) {
  const ReedSolomon rs(3, 2);
  std::vector<std::vector<std::uint8_t>> shards(5, std::vector<std::uint8_t>(8));
  std::vector<std::span<std::uint8_t>> views(shards.begin(), shards.end());
  const std::vector<bool> present{false, false, false, true, true};
  EXPECT_FALSE(rs.reconstruct(views, present));
}

TEST(ReedSolomon, RejectsBadShapes) {
  EXPECT_THROW(ReedSolomon(0, 1), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(1, 0), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(200, 100), std::invalid_argument);
}

// ---------------------------------------------------------- group codec ---

class GroupCodecParam
    : public ::testing::TestWithParam<std::tuple<CodecKind, int /*group size*/>> {};

TEST_P(GroupCodecParam, EncodeThenRebuildEveryMember) {
  const auto [kind, group_size] = GetParam();
  const std::size_t data_bytes = 1000;  // deliberately not stripe-aligned
  MiniCluster mc(group_size, 0);

  for (int victim = 0; victim < group_size; ++victim) {
    const auto result = mc.run(group_size, [&, victim](mpi::Comm& world) {
      const GroupCodec codec(kind, data_bytes, world.size());
      std::vector<std::byte> data(codec.padded_bytes(), std::byte{0});
      std::vector<std::byte> checksum(codec.redundancy_bytes());
      // Distinct per-rank content; SUM codec needs doubles, so fill the
      // buffer with valid doubles.
      std::span<double> lanes{reinterpret_cast<double*>(data.data()),
                              data.size() / sizeof(double)};
      for (std::size_t i = 0; i < lanes.size(); ++i) {
        lanes[i] = util::element_value(99, static_cast<std::uint64_t>(world.rank()), i);
      }
      const std::vector<std::byte> golden_data = data;

      codec.encode(world, data, checksum);
      const std::vector<std::byte> golden_checksum = checksum;
      EXPECT_TRUE(codec.verify(world, data, checksum));

      if (world.rank() == victim) {
        std::fill(data.begin(), data.end(), std::byte{0xAB});
        std::fill(checksum.begin(), checksum.end(), std::byte{0xCD});
      }
      codec.rebuild(world, std::array{victim}, data, checksum);

      const double tol = kind == CodecKind::kXor ? 0.0 : 1e-9;
      EXPECT_TRUE(equals(kind, data, golden_data, tol == 0.0 ? 1e-30 : tol));
      if (kind == CodecKind::kXor) {
        EXPECT_EQ(data, golden_data);
        EXPECT_EQ(checksum, golden_checksum);
      }
      EXPECT_TRUE(codec.verify(world, data, checksum));
    });
    ASSERT_TRUE(result.completed) << result.abort_reason;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSizes, GroupCodecParam,
    ::testing::Combine(::testing::Values(CodecKind::kXor, CodecKind::kSum),
                       ::testing::Values(2, 3, 4, 8)));

/// Multi-segment stripes: three 64 KiB segments and a 72-byte tail, so a
/// lost block splits into survivor parts that span several segments, and
/// the last part of each block ends mid-segment.
constexpr std::size_t kMultiSegmentStripe = 3 * (std::size_t{64} << 10) + 72;

/// Each rank's encoded buffers from one job, so later jobs can run a
/// rebuild alone and read its bytes off their JobResult.
struct Encoded {
  std::vector<std::vector<std::byte>> data;
  std::vector<std::vector<std::byte>> redundancy;
};

class GroupCodecMultiSegment
    : public ::testing::TestWithParam<std::tuple<CodecKind, int /*group size*/>> {};

TEST_P(GroupCodecMultiSegment, RebuildEveryVictimSendsEachBlockOncePerSurvivor) {
  const auto [kind, n] = GetParam();
  const std::size_t data_bytes = static_cast<std::size_t>(n - 1) * kMultiSegmentStripe;
  const GroupCodec shape(kind, data_bytes, n);
  ASSERT_EQ(shape.layout().stripe_bytes(), kMultiSegmentStripe);
  MiniCluster mc(n, 0);
  Encoded golden{std::vector<std::vector<std::byte>>(static_cast<std::size_t>(n)),
                 std::vector<std::vector<std::byte>>(static_cast<std::size_t>(n))};
  const auto encoded = mc.run(n, [&](mpi::Comm& world) {
    const auto r = static_cast<std::size_t>(world.rank());
    golden.data[r].assign(shape.padded_bytes(), std::byte{0});
    std::span<double> lanes{reinterpret_cast<double*>(golden.data[r].data()),
                            golden.data[r].size() / sizeof(double)};
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      lanes[i] = util::element_value(17, r, i);
    }
    golden.redundancy[r].resize(shape.redundancy_bytes());
    shape.encode(world, golden.data[r], golden.redundancy[r]);
  });
  ASSERT_TRUE(encoded.completed) << encoded.abort_reason;

  for (int victim = 0; victim < n; ++victim) {
    const auto result = mc.run(n, [&](mpi::Comm& world) {
      const auto r = static_cast<std::size_t>(world.rank());
      std::vector<std::byte> data = golden.data[r];
      std::vector<std::byte> checksum = golden.redundancy[r];
      if (world.rank() == victim) {
        std::fill(data.begin(), data.end(), std::byte{0xAB});
        std::fill(checksum.begin(), checksum.end(), std::byte{0xCD});
      }
      shape.rebuild(world, std::array{victim}, data, checksum);
      if (kind == CodecKind::kXor) {
        EXPECT_EQ(data, golden.data[r]) << "victim " << victim << " rank " << r;
        EXPECT_EQ(checksum, golden.redundancy[r]) << "victim " << victim << " rank " << r;
      } else {
        EXPECT_TRUE(equals(kind, data, golden.data[r], 1e-9)) << "victim " << victim;
        EXPECT_TRUE(equals(kind, checksum, golden.redundancy[r], 1e-9)) << "victim " << victim;
      }
    });
    ASSERT_TRUE(result.completed) << result.abort_reason;
    // Each of the victim's n blocks (n-1 stripes and its checksum) crosses
    // the wire once per survivor: n-2 partials among them and one
    // forward. That is the fan-in rebuild's (n-1) n stripes exactly. Every
    // segment is written in place and moved, so the mailbox copies
    // nothing; the fan-in copy-sent all (n-1) n stripes.
    const auto stripes = static_cast<std::size_t>((n - 1) * n);
    EXPECT_EQ(result.wire_bytes, stripes * kMultiSegmentStripe) << "victim " << victim;
    EXPECT_EQ(result.copied_bytes, 0u) << "victim " << victim;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSizes, GroupCodecMultiSegment,
    ::testing::Combine(::testing::Values(CodecKind::kXor, CodecKind::kSum),
                       ::testing::Values(2, 3, 4, 8)));

// Property: the reduce-scatter encode agrees with the N-sequential-reduce
// baseline on random payloads across group sizes. XOR must be bit-identical;
// SUM combines in a different order, so it is tolerance-equal.
class EncodeEquivalence
    : public ::testing::TestWithParam<std::tuple<CodecKind, int /*group size*/>> {};

TEST_P(EncodeEquivalence, ScatterEncodeMatchesReferenceEncode) {
  const auto [kind, group_size] = GetParam();
  const std::size_t data_bytes = 4096 + 72;  // not stripe-aligned
  MiniCluster mc(group_size, 0);
  for (std::uint64_t trial = 0; trial < 3; ++trial) {
    const auto result = mc.run(group_size, [&, trial](mpi::Comm& world) {
      const GroupCodec codec(kind, data_bytes, world.size());
      std::vector<std::byte> data(codec.padded_bytes(), std::byte{0});
      std::span<double> lanes{reinterpret_cast<double*>(data.data()),
                              data.size() / sizeof(double)};
      for (std::size_t i = 0; i < lanes.size(); ++i) {
        lanes[i] = util::element_value(7 + trial, static_cast<std::uint64_t>(world.rank()), i);
      }
      std::vector<std::byte> fast(codec.redundancy_bytes());
      std::vector<std::byte> reference(codec.redundancy_bytes());
      codec.encode(world, data, fast);
      codec.encode_reference(world, data, reference);
      if (kind == CodecKind::kXor) {
        EXPECT_EQ(fast, reference);
      } else {
        EXPECT_TRUE(equals(kind, fast, reference, 1e-9));
      }
    });
    ASSERT_TRUE(result.completed) << result.abort_reason;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSizes, EncodeEquivalence,
    ::testing::Combine(::testing::Values(CodecKind::kXor, CodecKind::kSum),
                       ::testing::Values(2, 3, 4, 5, 8, 16)));

TEST(GroupCodec, VerifyDetectsCorruption) {
  MiniCluster mc(4, 0);
  const auto result = mc.run(4, [](mpi::Comm& world) {
    const GroupCodec codec(CodecKind::kXor, 256, world.size());
    std::vector<std::byte> data(codec.padded_bytes(), std::byte(world.rank() + 1));
    std::vector<std::byte> checksum(codec.redundancy_bytes());
    codec.encode(world, data, checksum);
    ASSERT_TRUE(codec.verify(world, data, checksum));
    if (world.rank() == 2) data[5] ^= std::byte{0x40};
    EXPECT_FALSE(codec.verify(world, data, checksum));
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

TEST(GroupCodec, ChecksumIsStripeFraction) {
  const GroupCodec codec(CodecKind::kXor, 1 << 20, 16);
  // Checksum ~= M / (N-1); padding adds at most one lane per stripe.
  EXPECT_NEAR(static_cast<double>(codec.redundancy_bytes()),
              static_cast<double>(1 << 20) / 15.0, kLane + 1);
}

// ------------------------------------------------------- RS(k, m) group ---

/// Every subset of <= m members, erased simultaneously, must rebuild to
/// the exact pre-loss bytes (data AND parity) from the k survivors.
class RSGroupErasures
    : public ::testing::TestWithParam<std::tuple<int /*group size*/, int /*parity m*/>> {};

TEST_P(RSGroupErasures, EveryLossPatternUpToMRebuildsExactly) {
  const auto [group_size, parity] = GetParam();
  const std::size_t data_bytes = 700;  // deliberately not stripe-aligned
  MiniCluster mc(group_size, 0);

  // Enumerate loss masks of size 1..m over the group.
  for (int mask = 1; mask < (1 << group_size); ++mask) {
    if (__builtin_popcount(static_cast<unsigned>(mask)) > parity) continue;
    std::vector<int> lost;
    for (int p = 0; p < group_size; ++p) {
      if (mask & (1 << p)) lost.push_back(p);
    }
    const auto result = mc.run(group_size, [&](mpi::Comm& world) {
      const RSGroupCodec codec(data_bytes, world.size(), parity);
      std::vector<std::byte> data(codec.padded_bytes(), std::byte{0});
      std::vector<std::byte> parity_buf(codec.redundancy_bytes());
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::byte>(
            util::element_value(31, static_cast<std::uint64_t>(world.rank()), i) * 255.0);
      }
      const std::vector<std::byte> golden_data = data;
      codec.encode(world, data, parity_buf);
      const std::vector<std::byte> golden_parity = parity_buf;
      EXPECT_TRUE(codec.verify(world, data, parity_buf));

      const bool me_lost = (mask & (1 << world.rank())) != 0;
      if (me_lost) {
        std::fill(data.begin(), data.end(), std::byte{0xAB});
        std::fill(parity_buf.begin(), parity_buf.end(), std::byte{0xCD});
      }
      codec.rebuild(world, lost, data, parity_buf);
      EXPECT_EQ(data, golden_data) << "mask " << mask << " rank " << world.rank();
      EXPECT_EQ(parity_buf, golden_parity) << "mask " << mask << " rank " << world.rank();
      EXPECT_TRUE(codec.verify(world, data, parity_buf));
    });
    ASSERT_TRUE(result.completed) << result.abort_reason << " mask " << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, RSGroupErasures,
                         ::testing::Values(std::make_tuple(4, 2), std::make_tuple(5, 2),
                                           std::make_tuple(6, 2), std::make_tuple(5, 3),
                                           std::make_tuple(6, 3), std::make_tuple(6, 4),
                                           std::make_tuple(4, 1)));

class RSGroupMultiSegment
    : public ::testing::TestWithParam<std::tuple<int /*group size*/, int /*parity m*/>> {};

TEST_P(RSGroupMultiSegment, EveryLossPatternRebuildsFromKSurvivorsPerBlock) {
  const auto [n, m] = GetParam();
  const int k = n - m;
  const RSGroupCodec shape(static_cast<std::size_t>(k) * kMultiSegmentStripe, n, m);
  const std::size_t stripe = shape.stripe_bytes();  // rounded up to 64 bytes
  ASSERT_GT(stripe, 3 * (std::size_t{64} << 10));
  MiniCluster mc(n, 0);
  Encoded golden{std::vector<std::vector<std::byte>>(static_cast<std::size_t>(n)),
                 std::vector<std::vector<std::byte>>(static_cast<std::size_t>(n))};
  const auto encoded = mc.run(n, [&](mpi::Comm& world) {
    const auto r = static_cast<std::size_t>(world.rank());
    golden.data[r] = random_bytes(shape.padded_bytes(), 41 + r);
    golden.redundancy[r].resize(shape.redundancy_bytes());
    shape.encode(world, golden.data[r], golden.redundancy[r]);
  });
  ASSERT_TRUE(encoded.completed) << encoded.abort_reason;

  for (int mask = 1; mask < (1 << n); ++mask) {
    const int losses = __builtin_popcount(static_cast<unsigned>(mask));
    if (losses > m) continue;
    std::vector<int> lost;
    for (int p = 0; p < n; ++p) {
      if (mask & (1 << p)) lost.push_back(p);
    }
    const auto result = mc.run(n, [&](mpi::Comm& world) {
      const auto r = static_cast<std::size_t>(world.rank());
      std::vector<std::byte> data = golden.data[r];
      std::vector<std::byte> parity = golden.redundancy[r];
      if (mask & (1 << world.rank())) {
        std::fill(data.begin(), data.end(), std::byte{0xAB});
        std::fill(parity.begin(), parity.end(), std::byte{0xCD});
      }
      shape.rebuild(world, lost, data, parity);
      EXPECT_EQ(data, golden.data[r]) << "mask " << mask << " rank " << r;
      EXPECT_EQ(parity, golden.redundancy[r]) << "mask " << mask << " rank " << r;
    });
    ASSERT_TRUE(result.completed) << result.abort_reason << " mask " << mask;
    // A lost member needs n blocks back (k data stripes, m parity slots).
    // The code is MDS, so each is a combination of exactly k survivors'
    // blocks and crosses the wire k times; the per-(family, row) reduces
    // it replaces ran over all n members. Nothing is copied.
    const auto blocks = static_cast<std::size_t>(losses * n * k);
    EXPECT_EQ(result.wire_bytes, blocks * stripe) << "mask " << mask;
    EXPECT_EQ(result.copied_bytes, 0u) << "mask " << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, RSGroupMultiSegment,
                         ::testing::Values(std::make_tuple(4, 2), std::make_tuple(6, 3)));

TEST(RSGroup, WideGroupRecoversThreeConcurrentLosses) {
  // RS(8, 3): the issue's wide-stripe shape. Exhaustive masks would be
  // slow at N=11, so spot-check worst-case patterns: adjacent members
  // (shared families), spread members, and parity-heavy picks.
  const int n = 11;
  MiniCluster mc(n, 0);
  const std::vector<std::vector<int>> patterns{
      {0, 1, 2}, {0, 5, 10}, {3, 4, 5}, {8, 9, 10}, {0, 1, 10}, {2, 6, 7}};
  for (const auto& lost : patterns) {
    const auto result = mc.run(n, [&](mpi::Comm& world) {
      const RSGroupCodec codec(9000, world.size(), 3);
      std::vector<std::byte> data(codec.padded_bytes());
      std::vector<std::byte> parity(codec.redundancy_bytes());
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::byte>((i * 131 + static_cast<std::size_t>(world.rank()) * 7) & 0xFF);
      }
      const auto golden_data = data;
      codec.encode(world, data, parity);
      const auto golden_parity = parity;
      if (std::find(lost.begin(), lost.end(), world.rank()) != lost.end()) {
        std::fill(data.begin(), data.end(), std::byte{0xEE});
        std::fill(parity.begin(), parity.end(), std::byte{0xEE});
      }
      codec.rebuild(world, lost, data, parity);
      EXPECT_EQ(data, golden_data);
      EXPECT_EQ(parity, golden_parity);
    });
    ASSERT_TRUE(result.completed) << result.abort_reason;
  }
}

TEST(RSGroup, MoreThanMErasuresThrow) {
  MiniCluster mc(5, 0);
  const auto result = mc.run(5, [](mpi::Comm& world) {
    const RSGroupCodec codec(512, world.size(), 2);
    std::vector<std::byte> data(codec.padded_bytes());
    std::vector<std::byte> parity(codec.redundancy_bytes());
    const std::vector<int> three{0, 1, 2};
    EXPECT_THROW(codec.rebuild(world, three, data, parity), std::invalid_argument);
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

TEST(RSGroup, RejectsBadShapes) {
  EXPECT_THROW(RSGroupCodec(64, 3, 2), std::invalid_argument);  // N < m + 2
  EXPECT_THROW(RSGroupCodec(64, 4, 0), std::invalid_argument);
  EXPECT_THROW(RSGroupCodec(64, 2, 1), std::invalid_argument);
}

TEST(RSGroup, LayoutPartitionsFamilies) {
  for (const auto& [n, m] : {std::pair{7, 3}, std::pair{6, 2}}) {
    const RSGroupCodec codec(1024, n, m);
    const int k = n - m;
    EXPECT_EQ(codec.padded_bytes(), codec.stripe_bytes() * static_cast<std::size_t>(k));
    EXPECT_EQ(codec.redundancy_bytes(), codec.stripe_bytes() * static_cast<std::size_t>(m));
    for (int p = 0; p < n; ++p) {
      int stripes = 0;
      for (int f = 0; f < n; ++f) {
        // p contributes to f exactly when it owns none of f's parity rows.
        bool owns = false;
        for (int row = 0; row < m; ++row) owns |= codec.parity_owner(row, f) == p;
        EXPECT_EQ(codec.contributes(p, f), !owns);
        if (codec.contributes(p, f)) {
          EXPECT_EQ(codec.stripe_index(p, f), static_cast<std::size_t>(stripes));
          ++stripes;
        }
      }
      EXPECT_EQ(stripes, k) << "n " << n << " m " << m;
    }
    // Contributor indices within a family are a bijection onto 0..k-1.
    for (int f = 0; f < n; ++f) {
      std::vector<bool> seen(static_cast<std::size_t>(k), false);
      for (int p = 0; p < n; ++p) {
        if (!codec.contributes(p, f)) continue;
        const int idx = codec.contributor_index(p, f);
        ASSERT_GE(idx, 0);
        ASSERT_LT(idx, k);
        EXPECT_FALSE(seen[static_cast<std::size_t>(idx)]);
        seen[static_cast<std::size_t>(idx)] = true;
      }
    }
  }
}

/// Delta re-encode must agree with a from-scratch encode for arbitrary
/// dirty patterns (here: every rank dirties a different stripe).
TEST(RSGroup, EncodeDeltaMatchesFullEncode) {
  const int n = 6;
  MiniCluster mc(n, 0);
  const auto result = mc.run(n, [](mpi::Comm& world) {
    const RSGroupCodec codec(3000, world.size(), 3);
    const std::size_t stripes = codec.padded_bytes() / codec.stripe_bytes();
    std::vector<std::byte> base(codec.padded_bytes());
    for (std::size_t i = 0; i < base.size(); ++i) {
      base[i] = static_cast<std::byte>((i + static_cast<std::size_t>(world.rank()) * 97) & 0xFF);
    }
    std::vector<std::byte> old_parity(codec.redundancy_bytes());
    codec.encode(world, base, old_parity);

    std::vector<std::byte> next = base;
    std::vector<BlockRun> dirty;
    const std::size_t victim = static_cast<std::size_t>(world.rank()) % stripes;
    if (world.rank() % 2 == 0) {
      next[victim * codec.stripe_bytes() + 1] ^= std::byte{0x77};
      dirty.push_back({victim, 0, 1});
    }
    std::vector<std::byte> delta_parity(codec.redundancy_bytes());
    (void)codec.encode_delta(world, base, next, old_parity, delta_parity, dirty);
    std::vector<std::byte> full_parity(codec.redundancy_bytes());
    codec.encode(world, next, full_parity);
    EXPECT_EQ(delta_parity, full_parity);
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

/// The sparse delta's shapes for RS(k, m): every dirty pattern on both
/// sides of the half-dirty switch, aliased and distinct outputs, stripes
/// spanning several 64 KiB segments with a short last block. Each dirty
/// run's GF-weighted bytes cross the wire once per parity row of its
/// family.
class RSEncodeDeltaSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RSEncodeDeltaSweep, MatchesFullEncodeForEveryPattern) {
  const auto [n, m] = GetParam();
  const auto stripes = static_cast<std::size_t>(n - m);
  // 2 x 64 KiB + 960: a ragged last segment and a short last block.
  const std::size_t data_bytes = stripes * (2 * mpi::kCollectiveChunkBytes + 960) - 3;
  for (const testing::DirtyPattern pattern : testing::kDirtyPatterns) {
    MiniCluster mc(n, 0);
    const auto result = mc.run(n, [&](mpi::Comm& world) {
      const RSGroupCodec codec(data_bytes, n, m);
      const std::size_t stripe = codec.stripe_bytes();
      const testing::DeltaInputs in =
          testing::make_delta_inputs(pattern, n, world.rank(), stripe, stripes);
      std::vector<std::byte> old_parity(codec.redundancy_bytes());
      codec.encode(world, in.base, old_parity);
      std::vector<std::byte> reference(codec.redundancy_bytes());
      codec.encode(world, in.next, reference);

      std::vector<std::byte> in_place = old_parity;
      const std::vector<BlockRun> aliased =
          codec.encode_delta(world, in.base, in.next, in_place, in_place, in.runs);
      std::vector<std::byte> out(codec.redundancy_bytes());
      const std::vector<BlockRun> distinct =
          codec.encode_delta(world, in.base, in.next, old_parity, out, in.runs);
      EXPECT_EQ(in_place, reference) << testing::to_string(pattern);
      EXPECT_EQ(out, reference) << testing::to_string(pattern);

      // Parity slot j holds row j of family (rank - j) mod n, so it moves
      // over that family's union on the sparse path, whole after the ring.
      std::vector<BlockRun> expect;
      const bool sparse = testing::takes_sparse_path(pattern, n, stripe, stripes);
      for (int row = 0; row < m; ++row) {
        const auto slot = static_cast<std::size_t>(row);
        if (!sparse) {
          expect.push_back({slot, 0, stripe_blocks(stripe)});
          continue;
        }
        const int f = (world.rank() - row + n) % n;
        std::vector<std::pair<int, std::size_t>> family;
        for (int p = 0; p < n; ++p) {
          if (codec.contributes(p, f)) family.emplace_back(p, codec.stripe_index(p, f));
        }
        for (const BlockRun& run :
             testing::family_union(pattern, n, stripe, stripes, family, slot)) {
          expect.push_back(run);
        }
      }
      EXPECT_EQ(aliased, expect) << testing::to_string(pattern);
      EXPECT_EQ(distinct, aliased) << testing::to_string(pattern);
    });
    ASSERT_TRUE(result.completed) << testing::to_string(pattern) << ": "
                                  << result.abort_reason;

    const RSGroupCodec probe(data_bytes, n, m);
    const std::size_t stripe = probe.stripe_bytes();
    if (!testing::takes_sparse_path(pattern, n, stripe, stripes)) continue;
    // Wire bytes of the sparse reduce alone: the same job with the
    // exchange of the runs in place of the delta encode is the baseline.
    const auto job_wire_bytes = [&](bool delta) {
      MiniCluster job(n, 0);
      const auto r = job.run(n, [&](mpi::Comm& world) {
        const RSGroupCodec codec(data_bytes, n, m);
        const testing::DeltaInputs in =
            testing::make_delta_inputs(pattern, n, world.rank(), stripe, stripes);
        std::vector<std::byte> parity(codec.redundancy_bytes());
        codec.encode(world, in.base, parity);
        if (delta) {
          (void)codec.encode_delta(world, in.base, in.next, parity, parity, in.runs);
        } else {
          (void)exchange_runs(world, in.runs, stripe, stripes);
        }
      });
      EXPECT_TRUE(r.completed) << r.abort_reason;
      return r.wire_bytes;
    };
    EXPECT_EQ(job_wire_bytes(true) - job_wire_bytes(false),
              testing::group_dirty_bytes(pattern, n, stripe, stripes) *
                  static_cast<std::size_t>(m))
        << testing::to_string(pattern);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, RSEncodeDeltaSweep,
                         ::testing::Values(std::make_tuple(3, 1), std::make_tuple(4, 2),
                                           std::make_tuple(5, 2), std::make_tuple(8, 3)),
                         [](const auto& info) {
                           return "n" + std::to_string(std::get<0>(info.param)) + "_m" +
                                  std::to_string(std::get<1>(info.param));
                         });

// -------------------------------------------------------- erasure coder ---

/// The single-parity code must fail loudly when handed more erasures than
/// it supports — never quietly rebuild missing.front() from garbage
/// survivors.
TEST(ErasureCoder, SingleParityRefusesMultiEraseLoudly) {
  MiniCluster mc(4, 0);
  const auto result = mc.run(4, [](mpi::Comm& world) {
    const auto coder = make_coder(1, CodecKind::kXor, 512, world.size());
    std::vector<std::byte> data(coder->padded_bytes());
    std::vector<std::byte> redundancy(coder->redundancy_bytes());
    const std::vector<int> two{0, 1};
    try {
      coder->rebuild(world, two, data, redundancy);
      FAIL() << "rebuild with 2 erasures must throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("refusing"), std::string::npos);
    }
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

TEST(ErasureCoder, MakeCoderRoutesByParityDegree) {
  EXPECT_EQ(make_coder(1, CodecKind::kXor, 1024, 6)->max_failures(), 1);
  EXPECT_EQ(make_coder(2, CodecKind::kXor, 1024, 6)->max_failures(), 2);
  EXPECT_EQ(make_coder(3, CodecKind::kXor, 1024, 6)->max_failures(), 3);
  EXPECT_THROW(make_coder(0, CodecKind::kXor, 1024, 6), std::invalid_argument);
  // Degree 5 needs a group of >= 7.
  EXPECT_THROW(make_coder(5, CodecKind::kXor, 1024, 6), std::invalid_argument);
}

TEST(GroupCodec, MismatchedCommSizeThrows) {
  MiniCluster mc(3, 0);
  const auto result = mc.run(3, [](mpi::Comm& world) {
    const GroupCodec codec(CodecKind::kXor, 128, 4);  // wrong group size
    std::vector<std::byte> data(codec.padded_bytes());
    std::vector<std::byte> checksum(codec.redundancy_bytes());
    EXPECT_THROW(codec.encode(world, data, checksum), std::invalid_argument);
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

}  // namespace
}  // namespace skt::enc
