#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "dirty_patterns.hpp"
#include "encoding/codec.hpp"
#include "encoding/gf256.hpp"
#include "encoding/group_codec.hpp"
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


// ------------------------------------------------------------ generator ---

/// Row 0 of the generator is all ones (the XOR checksum), and every square
/// submatrix of the m x k matrix is invertible, which is what makes any m
/// losses recoverable. Family 0's parity rows live on members 0..m-1, so
/// its contributors m..N-1 are columns 0..k-1.
TEST(GroupCodec, GeneratorRowZeroIsOnesAndEverySquareSubmatrixIsInvertible) {
  std::size_t submatrices = 0;
  for (int m = 1; m <= 4; ++m) {
    for (int k = m == 1 ? 1 : 2; k <= 16; ++k) {
      const GroupCodec codec(CodecKind::kXor, 64, k + m, m);
      const auto c = [&](int row, int col) { return codec.coefficient(row, m + col, 0); };
      for (int col = 0; col < k; ++col) EXPECT_EQ(c(0, col), 1) << "k " << k << " m " << m;
      for (unsigned rows = 1; rows < (1u << m); ++rows) {
        const int s = __builtin_popcount(rows);
        for (unsigned cols = 1; cols < (1u << k); ++cols) {
          if (__builtin_popcount(cols) != s) continue;
          std::vector<std::uint8_t> matrix;
          for (int row = 0; row < m; ++row) {
            if ((rows & (1u << row)) == 0) continue;
            for (int col = 0; col < k; ++col) {
              if ((cols & (1u << col)) != 0) matrix.push_back(c(row, col));
            }
          }
          std::vector<std::uint8_t> rhs(static_cast<std::size_t>(s), 0);
          EXPECT_TRUE(gf256::solve(matrix, rhs, s))
              << "k " << k << " m " << m << " rows " << rows << " cols " << cols;
          ++submatrices;
        }
      }
    }
  }
  EXPECT_GT(submatrices, 10000u);
}

// --------------------------------------------------------------- layout ---

TEST(GroupCodec, LayoutPartitionsFamilies) {
  for (const auto& [n, m] :
       {std::pair{2, 1}, std::pair{4, 1}, std::pair{5, 1}, std::pair{6, 2}, std::pair{7, 3}}) {
    const GroupCodec codec(CodecKind::kXor, 1000, n, m);
    const int k = n - m;
    EXPECT_EQ(codec.stripe_bytes() % kLane, 0u);
    EXPECT_GE(codec.stripe_bytes() * static_cast<std::size_t>(k), 1000u);
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
  // Fig. 1 (m = 1): member p holds the checksum of family p and one stripe
  // of every other family, in family order.
  const GroupCodec fig1(CodecKind::kXor, 64, 4);
  EXPECT_EQ(fig1.stripe_index(2, 0), 0u);
  EXPECT_EQ(fig1.stripe_index(2, 1), 1u);
  EXPECT_EQ(fig1.stripe_index(2, 3), 2u);
  EXPECT_THROW((void)fig1.stripe_index(2, 2), std::invalid_argument);
  EXPECT_THROW((void)fig1.stripe_index(2, 9), std::out_of_range);
}

TEST(GroupCodec, RejectsBadShapes) {
  EXPECT_THROW(GroupCodec(CodecKind::kXor, 64, 1), std::invalid_argument);
  EXPECT_THROW(GroupCodec(CodecKind::kXor, 64, 4, 0), std::invalid_argument);
  EXPECT_THROW(GroupCodec(CodecKind::kXor, 64, 3, 2), std::invalid_argument);  // N < m + 2
  EXPECT_THROW(GroupCodec(CodecKind::kXor, 1024, 6, 5), std::invalid_argument);
  EXPECT_THROW(GroupCodec(CodecKind::kXor, 64, 257, 2), std::invalid_argument);  // > GF(2^8)
  // The smallest single-parity group is a pair, each member's checksum the
  // other's one stripe.
  EXPECT_NO_THROW(GroupCodec(CodecKind::kXor, 64, 2));
  for (int m = 1; m <= 3; ++m) {
    EXPECT_EQ(GroupCodec(CodecKind::kXor, 1024, 6, m).max_failures(), m);
  }
}

TEST(GroupCodec, ChecksumIsStripeFraction) {
  const GroupCodec codec(CodecKind::kXor, 1 << 20, 16);
  // Checksum ~= M / (N-1); padding adds at most one lane per stripe.
  EXPECT_NEAR(static_cast<double>(codec.redundancy_bytes()),
              static_cast<double>(1 << 20) / 15.0, kLane + 1);
}

// ------------------------------------------------------------ the codes ---

/// One code under test: lane kind, group size N and parity degree m.
struct Code {
  CodecKind kind;
  int n;
  int m;
};

std::ostream& operator<<(std::ostream& os, const Code& code) {
  return os << to_string(code.kind) << "_n" << code.n << "_m" << code.m;
}

std::string code_name(const ::testing::TestParamInfo<Code>& info) {
  std::ostringstream os;
  os << info.param;
  return os.str();
}

/// The codes every codec suite below runs: the single-parity checksum over
/// XOR and SUM, and RS(k, m) from the RAID-6 case up. A SUM code with
/// m >= 2 runs on GF(2^8) like any other.
const auto kCodes = ::testing::Values(
    Code{CodecKind::kXor, 2, 1}, Code{CodecKind::kSum, 2, 1}, Code{CodecKind::kXor, 3, 1},
    Code{CodecKind::kSum, 3, 1}, Code{CodecKind::kXor, 4, 1}, Code{CodecKind::kSum, 4, 1},
    Code{CodecKind::kXor, 8, 1}, Code{CodecKind::kSum, 8, 1}, Code{CodecKind::kXor, 4, 2},
    Code{CodecKind::kXor, 5, 2}, Code{CodecKind::kSum, 5, 2}, Code{CodecKind::kXor, 6, 2},
    Code{CodecKind::kXor, 5, 3}, Code{CodecKind::kXor, 6, 3}, Code{CodecKind::kXor, 8, 3},
    Code{CodecKind::kXor, 6, 4});

/// SUM's single-parity code combines within rounding; XOR and every GF(2^8)
/// code are exact.
void expect_same(const Code& code, const std::vector<std::byte>& got,
                 const std::vector<std::byte>& want, const std::string& what) {
  if (code.kind == CodecKind::kXor || code.m > 1) {
    EXPECT_EQ(got, want) << what;
  } else {
    EXPECT_TRUE(equals(CodecKind::kSum, got, want, 1e-9)) << what;
  }
}

/// A buffer of valid doubles, distinct per rank: the SUM lanes need them,
/// XOR and GF(2^8) take them as bytes.
std::vector<std::byte> double_bytes(std::size_t size, std::uint64_t seed, int rank) {
  std::vector<std::byte> out(size, std::byte{0});
  for (std::size_t i = 0; i + sizeof(double) <= size; i += sizeof(double)) {
    const double v = util::element_value(seed, static_cast<std::uint64_t>(rank), i);
    std::memcpy(out.data() + i, &v, sizeof(double));
  }
  return out;
}

/// Every set of 1..m members of a group of n.
std::vector<std::vector<int>> loss_patterns(int n, int m) {
  std::vector<std::vector<int>> out;
  for (unsigned mask = 1; mask < (1u << n); ++mask) {
    if (__builtin_popcount(mask) > m) continue;
    std::vector<int> lost;
    for (int p = 0; p < n; ++p) {
      if ((mask & (1u << p)) != 0) lost.push_back(p);
    }
    out.push_back(std::move(lost));
  }
  return out;
}

std::string describe(const std::vector<int>& lost) {
  std::string out = "lost";
  for (const int p : lost) out += " " + std::to_string(p);
  return out;
}

/// Every set of up to m members, erased at once, rebuilds to the pre-loss
/// bytes, data and redundancy alike.
class GroupCodecErasures : public ::testing::TestWithParam<Code> {};

TEST_P(GroupCodecErasures, EveryLossPatternUpToMRebuilds) {
  const Code code = GetParam();
  const std::size_t data_bytes = 1000;  // deliberately not stripe-aligned
  MiniCluster mc(code.n, 0);
  for (const std::vector<int>& lost : loss_patterns(code.n, code.m)) {
    const auto result = mc.run(code.n, [&](mpi::Comm& world) {
      const GroupCodec codec(code.kind, data_bytes, world.size(), code.m);
      std::vector<std::byte> data = double_bytes(codec.padded_bytes(), 99, world.rank());
      std::vector<std::byte> redundancy(codec.redundancy_bytes());
      const std::vector<std::byte> golden_data = data;
      codec.encode(world, data, redundancy);
      const std::vector<std::byte> golden_redundancy = redundancy;
      EXPECT_TRUE(codec.verify(world, data, redundancy));

      if (std::find(lost.begin(), lost.end(), world.rank()) != lost.end()) {
        std::fill(data.begin(), data.end(), std::byte{0xAB});
        std::fill(redundancy.begin(), redundancy.end(), std::byte{0xCD});
      }
      codec.rebuild(world, lost, data, redundancy);
      const std::string what = describe(lost) + " rank " + std::to_string(world.rank());
      expect_same(code, data, golden_data, what);
      expect_same(code, redundancy, golden_redundancy, what);
      EXPECT_TRUE(codec.verify(world, data, redundancy)) << what;
    });
    ASSERT_TRUE(result.completed) << result.abort_reason << " " << describe(lost);
  }
}

INSTANTIATE_TEST_SUITE_P(Codes, GroupCodecErasures, kCodes, code_name);

/// Multi-segment stripes: three 64 KiB segments and a 72-byte tail, so a
/// fold walks several segments of every lent block and its last segment
/// ends mid-segment.
constexpr std::size_t kMultiSegmentStripe = 3 * (std::size_t{64} << 10) + 72;

/// Each rank's encoded buffers from one job, so later jobs can run a
/// rebuild alone and read its bytes off their JobResult.
struct Encoded {
  std::vector<std::vector<std::byte>> data;
  std::vector<std::vector<std::byte>> redundancy;
};

class GroupCodecMultiSegment : public ::testing::TestWithParam<Code> {};

TEST_P(GroupCodecMultiSegment, EveryLossPatternRebuildsFromKSurvivorsPerBlock) {
  const Code code = GetParam();
  const int n = code.n;
  const int k = n - code.m;
  const GroupCodec shape(code.kind, static_cast<std::size_t>(k) * kMultiSegmentStripe, n,
                         code.m);
  ASSERT_EQ(shape.stripe_bytes(), kMultiSegmentStripe);
  MiniCluster mc(n, 0);
  Encoded golden{std::vector<std::vector<std::byte>>(static_cast<std::size_t>(n)),
                 std::vector<std::vector<std::byte>>(static_cast<std::size_t>(n))};
  const auto encoded = mc.run(n, [&](mpi::Comm& world) {
    const auto r = static_cast<std::size_t>(world.rank());
    golden.data[r] = double_bytes(shape.padded_bytes(), 17, world.rank());
    golden.redundancy[r].resize(shape.redundancy_bytes());
    shape.encode(world, golden.data[r], golden.redundancy[r]);
  });
  ASSERT_TRUE(encoded.completed) << encoded.abort_reason;

  for (const std::vector<int>& lost : loss_patterns(n, code.m)) {
    const auto result = mc.run(n, [&](mpi::Comm& world) {
      const auto r = static_cast<std::size_t>(world.rank());
      std::vector<std::byte> data = golden.data[r];
      std::vector<std::byte> redundancy = golden.redundancy[r];
      if (std::find(lost.begin(), lost.end(), world.rank()) != lost.end()) {
        std::fill(data.begin(), data.end(), std::byte{0xAB});
        std::fill(redundancy.begin(), redundancy.end(), std::byte{0xCD});
      }
      shape.rebuild(world, lost, data, redundancy);
      const std::string what = describe(lost) + " rank " + std::to_string(r);
      expect_same(code, data, golden.data[r], what);
      expect_same(code, redundancy, golden.redundancy[r], what);
    });
    ASSERT_TRUE(result.completed) << result.abort_reason << " " << describe(lost);
    // A lost member needs n blocks back (k data stripes, m parity slots).
    // The code is MDS, so each is a combination of exactly k survivors'
    // blocks, each lent once to the lost member, which folds them in
    // place: one message per term, and the mailbox copies nothing. At
    // m = 1 that is the fan-in rebuild's (n-1) n stripes.
    const std::size_t terms = lost.size() * static_cast<std::size_t>(n * k);
    EXPECT_EQ(result.wire_bytes, terms * kMultiSegmentStripe) << describe(lost);
    EXPECT_EQ(result.wire_messages, terms) << describe(lost);
    EXPECT_EQ(result.copied_bytes, 0u) << describe(lost);
  }
}

// A node death inside the lent rebuild, on each member in turn: a lost
// member dies holding a block's views, a survivor after lending its terms
// and before they are settled, with the lost members reading them. The
// job aborts, nobody hangs, and no lent buffer is freed under a reader
// (AddressSanitizer lanes).
TEST_P(GroupCodecMultiSegment, NodeDeathInsideTheLentRebuildAbortsTheJobCleanly) {
  const Code code = GetParam();
  const int n = code.n;
  const int k = n - code.m;
  const GroupCodec shape(code.kind, static_cast<std::size_t>(k) * kMultiSegmentStripe, n,
                         code.m);
  std::vector<int> lost(static_cast<std::size_t>(code.m));
  std::iota(lost.begin(), lost.end(), 0);
  for (int victim = 0; victim < n; ++victim) {
    MiniCluster mc(n, 0);
    sim::FailureInjector injector;
    injector.add_rule(
        {.point = "enc.rebuild", .world_rank = victim, .hit = 1, .repeat = false});
    const auto result = mc.run(
        n,
        [&](mpi::Comm& world) {
          std::vector<std::byte> data = double_bytes(shape.padded_bytes(), 37, world.rank());
          std::vector<std::byte> redundancy(shape.redundancy_bytes());
          shape.rebuild(world, lost, data, redundancy);
        },
        &injector);
    EXPECT_FALSE(result.completed) << "victim " << victim;
    EXPECT_FALSE(mc.cluster.node(victim).alive()) << "victim " << victim;
  }
}

INSTANTIATE_TEST_SUITE_P(Codes, GroupCodecMultiSegment, kCodes, code_name);

/// The full encode: every member lends each of its k stripes once to the
/// owner of each parity row it feeds, and the owners fold them in place.
class GroupCodecEncode : public ::testing::TestWithParam<Code> {};

TEST_P(GroupCodecEncode, FullEncodeLendsEachStripeOncePerParityRowAndCopiesNothing) {
  const Code code = GetParam();
  const int n = code.n;
  const int k = n - code.m;
  const GroupCodec codec(code.kind, static_cast<std::size_t>(k) * kMultiSegmentStripe, n,
                         code.m);
  MiniCluster mc(n, 0);
  Encoded out{std::vector<std::vector<std::byte>>(static_cast<std::size_t>(n)),
              std::vector<std::vector<std::byte>>(static_cast<std::size_t>(n))};
  const auto result = mc.run(n, [&](mpi::Comm& world) {
    const auto r = static_cast<std::size_t>(world.rank());
    out.data[r] = double_bytes(codec.padded_bytes(), 23, world.rank());
    out.redundancy[r].resize(codec.redundancy_bytes());
    codec.encode(world, out.data[r], out.redundancy[r]);
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
  const std::size_t stripes = static_cast<std::size_t>(code.m * n * k);
  EXPECT_EQ(result.wire_bytes, stripes * kMultiSegmentStripe);
  EXPECT_EQ(result.wire_messages, stripes);
  EXPECT_EQ(result.copied_bytes, 0u);

  // Every parity slot against its definition, computed locally: slot j of
  // member p is row j of family (p - j) mod n, sum_i c_j(i) * D_i.
  const std::size_t stripe = codec.stripe_bytes();
  for (int p = 0; p < n; ++p) {
    for (int row = 0; row < code.m; ++row) {
      const int f = (p - row + n) % n;
      std::vector<std::byte> want(stripe, std::byte{0});
      for (int q = 0; q < n; ++q) {
        if (!codec.contributes(q, f)) continue;
        const std::span<const std::byte> src(
            out.data[static_cast<std::size_t>(q)].data() + codec.stripe_index(q, f) * stripe,
            stripe);
        if (code.m == 1) {
          accumulate(code.kind, want, src);
        } else {
          gf256::mul_acc({reinterpret_cast<std::uint8_t*>(want.data()), stripe},
                         {reinterpret_cast<const std::uint8_t*>(src.data()), stripe},
                         codec.coefficient(row, q, f));
        }
      }
      const std::vector<std::byte> got(
          out.redundancy[static_cast<std::size_t>(p)].begin() +
              static_cast<std::ptrdiff_t>(static_cast<std::size_t>(row) * stripe),
          out.redundancy[static_cast<std::size_t>(p)].begin() +
              static_cast<std::ptrdiff_t>(static_cast<std::size_t>(row + 1) * stripe));
      expect_same(code, got, want, "member " + std::to_string(p) + " row " + std::to_string(row));
    }
  }
}

// A node death inside an owner's fold, on each member in turn: the victim
// unwinds holding its slot's views while its peers may be reading its own
// lent stripes, whose buffers its unwinding frees. The job aborts, nobody
// hangs, and no buffer is freed under a reader (AddressSanitizer lanes).
TEST_P(GroupCodecEncode, NodeDeathInsideAnOwnersFoldAbortsTheJobCleanly) {
  const Code code = GetParam();
  const int n = code.n;
  const int k = n - code.m;
  const GroupCodec codec(code.kind, static_cast<std::size_t>(k) * kMultiSegmentStripe, n,
                         code.m);
  for (int victim = 0; victim < n; ++victim) {
    MiniCluster mc(n, 0);
    sim::FailureInjector injector;
    injector.add_rule(
        {.point = "enc.fold", .world_rank = victim, .hit = 1, .repeat = false});
    const auto result = mc.run(
        n,
        [&](mpi::Comm& world) {
          const std::vector<std::byte> data =
              double_bytes(codec.padded_bytes(), 31, world.rank());
          std::vector<std::byte> redundancy(codec.redundancy_bytes());
          codec.encode(world, data, redundancy);
        },
        &injector);
    EXPECT_FALSE(result.completed) << "victim " << victim;
    EXPECT_FALSE(mc.cluster.node(victim).alive()) << "victim " << victim;
  }
}

INSTANTIATE_TEST_SUITE_P(Codes, GroupCodecEncode, kCodes, code_name);

/// encode_delta == encode: the bit-identity (tolerance for SUM) the
/// dirty-block commits stake checkpoint correctness on, for every dirty
/// pattern on both sides of the half-dirty switch, and stripes of two
/// 64 KiB segments plus a ragged 1000-byte tail, so a whole-stripe run's
/// loan is folded in several segments and the last of a stripe's 33
/// blocks is short.
class EncodeDeltaSweep : public ::testing::TestWithParam<Code> {};

std::size_t sweep_data_bytes(const Code& code) {
  return static_cast<std::size_t>(code.n - code.m) * (2 * mpi::kCollectiveChunkBytes + 1000) - 5;
}

TEST_P(EncodeDeltaSweep, MatchesFullEncodeForEveryPattern) {
  const Code code = GetParam();
  const int n = code.n;
  const auto stripes = static_cast<std::size_t>(n - code.m);
  for (const testing::DirtyPattern pattern : testing::kDirtyPatterns) {
    MiniCluster mc(n, 0);
    const auto result = mc.run(n, [&](mpi::Comm& world) {
      const GroupCodec codec(code.kind, sweep_data_bytes(code), n, code.m);
      const std::size_t stripe = codec.stripe_bytes();
      ASSERT_GT(stripe, 2 * mpi::kCollectiveChunkBytes);
      ASSERT_NE(stripe % kBlockBytes, 0u);
      const testing::DeltaInputs in =
          testing::make_delta_inputs(pattern, n, world.rank(), stripe, stripes);
      std::vector<std::byte> old_redundancy(codec.redundancy_bytes());
      codec.encode(world, in.base, old_redundancy);
      std::vector<std::byte> reference(codec.redundancy_bytes());
      codec.encode(world, in.next, reference);

      std::vector<std::byte> out = old_redundancy;
      const std::vector<BlockRun> changed =
          codec.encode_delta(world, in.base, in.next, out, in.runs);
      expect_same(code, out, reference, testing::to_string(pattern));

      // What every member can predict from the pattern: parity slot j
      // holds row j of family (rank - j) mod n, so it moves over that
      // family's union on the sparse path, whole after the full encode.
      std::vector<BlockRun> expect;
      const bool sparse = testing::takes_sparse_path(pattern, n, stripe, stripes);
      for (int row = 0; row < code.m; ++row) {
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
      EXPECT_EQ(changed, expect) << testing::to_string(pattern);
      // Outside those runs the redundancy kept its old bytes.
      std::vector<std::byte> kept = old_redundancy;
      for (const BlockRun& run : changed) {
        const ByteRange r = run_bytes(run, stripe);
        std::memcpy(kept.data() + r.begin, out.data() + r.begin, r.size());
      }
      EXPECT_EQ(kept, out) << testing::to_string(pattern);
    });
    ASSERT_TRUE(result.completed) << testing::to_string(pattern) << ": "
                                  << result.abort_reason;
  }
}

TEST_P(EncodeDeltaSweep, SparseWireBytesAreTheExchangedDirtyBytesPerParityRow) {
  const Code code = GetParam();
  const int n = code.n;
  const auto stripes = static_cast<std::size_t>(n - code.m);
  const std::size_t stripe = GroupCodec(code.kind, sweep_data_bytes(code), n, code.m).stripe_bytes();
  // Two jobs that differ only in their last collective: the delta encode,
  // or the exchange of the same runs (its first step). The difference in
  // job-wide traffic is the lent diffs alone: one loan per exchanged run
  // and parity row, carrying the run's bytes, and nothing copied.
  const auto job = [&](testing::DirtyPattern pattern, bool delta) {
    MiniCluster mc(n, 0);
    const auto result = mc.run(n, [&](mpi::Comm& world) {
      const GroupCodec codec(code.kind, sweep_data_bytes(code), n, code.m);
      const testing::DeltaInputs in =
          testing::make_delta_inputs(pattern, n, world.rank(), stripe, stripes);
      std::vector<std::byte> redundancy(codec.redundancy_bytes());
      codec.encode(world, in.base, redundancy);
      if (delta) {
        (void)codec.encode_delta(world, in.base, in.next, redundancy, in.runs);
      } else {
        (void)exchange_runs(world, in.runs, stripe, stripes);
      }
    });
    EXPECT_TRUE(result.completed) << result.abort_reason;
    return result;
  };
  const auto rows = static_cast<std::size_t>(code.m);
  for (const testing::DirtyPattern pattern : testing::kDirtyPatterns) {
    if (!testing::takes_sparse_path(pattern, n, stripe, stripes)) continue;
    const auto delta = job(pattern, true);
    const auto exchange = job(pattern, false);
    EXPECT_EQ(delta.wire_bytes - exchange.wire_bytes,
              testing::group_dirty_bytes(pattern, n, stripe, stripes) * rows)
        << testing::to_string(pattern);
    EXPECT_EQ(delta.wire_messages - exchange.wire_messages,
              testing::group_dirty_runs(pattern, n, stripe, stripes) * rows)
        << testing::to_string(pattern);
    EXPECT_EQ(delta.copied_bytes, exchange.copied_bytes) << testing::to_string(pattern);
  }
}

INSTANTIATE_TEST_SUITE_P(Codes, EncodeDeltaSweep, kCodes, code_name);

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
      const std::vector<std::byte> data =
          double_bytes(codec.padded_bytes(), 7 + trial, world.rank());
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

TEST(GroupCodec, WideGroupRecoversThreeConcurrentLosses) {
  // RS(8, 3). Exhaustive masks would be slow at N = 11, so spot-check
  // worst-case patterns: adjacent members (shared families), spread
  // members, and parity-heavy picks.
  const int n = 11;
  MiniCluster mc(n, 0);
  const std::vector<std::vector<int>> patterns{
      {0, 1, 2}, {0, 5, 10}, {3, 4, 5}, {8, 9, 10}, {0, 1, 10}, {2, 6, 7}};
  for (const auto& lost : patterns) {
    const auto result = mc.run(n, [&](mpi::Comm& world) {
      const GroupCodec codec(CodecKind::kXor, 9000, world.size(), 3);
      std::vector<std::byte> data = double_bytes(codec.padded_bytes(), 5, world.rank());
      std::vector<std::byte> parity(codec.redundancy_bytes());
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

/// Stripes shorter than one block: the delta encode of single-byte writes
/// on even ranks agrees with a full encode.
TEST(GroupCodec, EncodeDeltaMatchesFullEncodeOnSubBlockStripes) {
  const int n = 6;
  MiniCluster mc(n, 0);
  const auto result = mc.run(n, [](mpi::Comm& world) {
    const GroupCodec codec(CodecKind::kXor, 3000, world.size(), 3);
    const std::size_t stripes = codec.stripe_count();
    const std::vector<std::byte> base = double_bytes(codec.padded_bytes(), 3, world.rank());
    std::vector<std::byte> old_parity(codec.redundancy_bytes());
    codec.encode(world, base, old_parity);

    std::vector<std::byte> next = base;
    std::vector<BlockRun> dirty;
    const std::size_t victim = static_cast<std::size_t>(world.rank()) % stripes;
    if (world.rank() % 2 == 0) {
      next[victim * codec.stripe_bytes() + 1] ^= std::byte{0x77};
      dirty.push_back({victim, 0, 1});
    }
    std::vector<std::byte> delta_parity = old_parity;
    (void)codec.encode_delta(world, base, next, delta_parity, dirty);
    std::vector<std::byte> full_parity(codec.redundancy_bytes());
    codec.encode(world, next, full_parity);
    EXPECT_EQ(delta_parity, full_parity);
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

// Two delta encodes at once, one on the rank thread and one on a second
// thread over a dup()'d communicator (the async commit worker's setup),
// with a user message between the same pair queued first: neither
// encode's loans match the other's or the user's traffic, and each leaves
// the parity its full encode computes.
TEST(GroupCodec, DeltaEncodesDoNotCrossUserTrafficOrADupdCommunicator) {
  constexpr int kN = 4;
  const Code code{CodecKind::kXor, kN, 1};
  MiniCluster mc(kN, 0);
  const auto result = mc.run(kN, [&](mpi::Comm& world) {
    const GroupCodec codec(code.kind, sweep_data_bytes(code), kN);
    const auto matches_full_encode = [&](mpi::Comm& comm, testing::DirtyPattern pattern) {
      const testing::DeltaInputs in = testing::make_delta_inputs(
          pattern, kN, comm.rank(), codec.stripe_bytes(), codec.stripe_count());
      std::vector<std::byte> want(codec.redundancy_bytes());
      codec.encode(comm, in.next, want);
      std::vector<std::byte> got(codec.redundancy_bytes());
      codec.encode(comm, in.base, got);
      (void)codec.encode_delta(comm, in.base, in.next, got, in.runs);
      return got == want;
    };
    mpi::Comm twin = world.dup();
    if (world.rank() == 1) world.send_value<int>(0, 0, 41);
    bool twin_ok = false;
    std::jthread worker(
        [&] { twin_ok = matches_full_encode(twin, testing::DirtyPattern::kFamilyOverlap); });
    const bool ok = matches_full_encode(world, testing::DirtyPattern::kTwoRuns);
    worker.join();
    EXPECT_TRUE(ok) << "rank " << world.rank();
    EXPECT_TRUE(twin_ok) << "rank " << world.rank();
    if (world.rank() == 0) {
      EXPECT_EQ(world.recv_value<int>(1, 0), 41);
    }
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

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

/// A code must fail loudly when handed more erasures than its degree,
/// never quietly rebuild from garbage survivors.
TEST(GroupCodec, RefusesMoreErasuresThanItsDegreeLoudly) {
  MiniCluster mc(5, 0);
  const auto result = mc.run(5, [](mpi::Comm& world) {
    for (int m = 1; m <= 2; ++m) {
      const GroupCodec codec(CodecKind::kXor, 512, world.size(), m);
      std::vector<std::byte> data(codec.padded_bytes());
      std::vector<std::byte> redundancy(codec.redundancy_bytes());
      std::vector<int> lost(static_cast<std::size_t>(m + 1));
      std::iota(lost.begin(), lost.end(), 0);
      try {
        codec.rebuild(world, lost, data, redundancy);
        ADD_FAILURE() << "rebuild of " << m + 1 << " erasures at degree " << m << " must throw";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("refusing"), std::string::npos);
      }
    }
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

TEST(GroupCodec, ReferenceEncodeIsSingleParityOnlyAndCommSizeIsChecked) {
  MiniCluster mc(4, 0);
  const auto result = mc.run(4, [](mpi::Comm& world) {
    const GroupCodec rs(CodecKind::kXor, 128, 4, 2);
    std::vector<std::byte> data(rs.padded_bytes());
    std::vector<std::byte> parity(rs.redundancy_bytes());
    EXPECT_THROW(rs.encode_reference(world, data, parity), std::logic_error);

    const GroupCodec codec(CodecKind::kXor, 128, 3);  // wrong group size
    std::vector<std::byte> mine(codec.padded_bytes());
    std::vector<std::byte> checksum(codec.redundancy_bytes());
    EXPECT_THROW(codec.encode(world, mine, checksum), std::invalid_argument);
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

}  // namespace
}  // namespace skt::enc
