// Unit tests for the HPL substrate's local pieces: BLAS kernels against
// naive references (the GEMM, the panel column step and the TRSM on every
// dispatch tier) and block-cyclic index arithmetic properties.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "encoding/kernels.hpp"
#include "hpl/blas.hpp"
#include "hpl/block_cyclic.hpp"
#include "testing.hpp"
#include "util/rng.hpp"

namespace skt::hpl {
namespace {

std::vector<double> random_matrix(std::int64_t m, std::int64_t n, std::uint64_t seed) {
  std::vector<double> a(static_cast<std::size_t>(m * n));
  util::Xoshiro256 rng(seed);
  for (auto& v : a) v = rng.next_centered();
  return a;
}

/// C -= A*B by the plain triple loop, summing each dot product first.
void naive_gemm_minus(std::int64_t m, std::int64_t n, std::int64_t k, const double* a,
                      std::int64_t lda, const double* b, std::int64_t ldb, double* c,
                      std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::int64_t kk = 0; kk < k; ++kk) acc += a[i * lda + kk] * b[kk * ldb + j];
      c[i * ldc + j] -= acc;
    }
  }
}

/// gemm_minus on each dispatch tier: m, n and k at 0, 1, and just below,
/// at and above the AVX2 micro-tile (6 x 8), its k-block (256) and the
/// scalar loop's blocks (k 64, n 128), with tight and padded leading
/// dimensions. Every cell outside the A, B and C windows is a NaN guard:
/// reading an A or B guard would poison C, and writing a C guard changes
/// its bits.
class BlasTiers : public ::testing::TestWithParam<enc::kernels::Tier> {};

TEST_P(BlasTiers, GemmMinusSweep) {
  const skt::testing::TierGuard guard(GetParam());
  if (enc::kernels::active_tier() != GetParam()) {
    GTEST_SKIP() << "tier not compiled in or not supported on this CPU";
  }
  const double guard_nan = std::bit_cast<double>(std::uint64_t{0x7ff8dead0000beefULL});
  constexpr std::int64_t kSlack = 5;  // guard cells before and after each window
  std::uint64_t seed = 1;
  // Buffer of `rows` x `ld` with a `kSlack` guard on both sides; the
  // window [rows x cols] at offset kSlack holds random values.
  const auto guarded = [&](std::int64_t rows, std::int64_t cols, std::int64_t ld) {
    std::vector<double> buf(static_cast<std::size_t>(rows * ld + 2 * kSlack), guard_nan);
    util::Xoshiro256 rng(seed++);
    for (std::int64_t i = 0; i < rows; ++i) {
      for (std::int64_t j = 0; j < cols; ++j) {
        buf[static_cast<std::size_t>(kSlack + i * ld + j)] = rng.next_centered();
      }
    }
    return buf;
  };
  for (const std::int64_t m : {0, 1, 5, 6, 7, 13}) {
    for (const std::int64_t n : {0, 1, 7, 8, 9, 17, 129}) {
      for (const std::int64_t k : {0, 1, 63, 64, 65, 255, 256, 257}) {
        for (const std::int64_t pad : {0, 3}) {
          SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n << " k=" << k
                                            << " pad=" << pad);
          const std::int64_t lda = k + pad, ldb = n + 2 * pad, ldc = n + 3 * pad;
          const auto a = guarded(m, k, lda);
          const auto b = guarded(k, n, ldb);
          const auto c0 = guarded(m, n, ldc);
          auto c = c0;
          auto ref = c0;
          blas::gemm_minus(m, n, k, a.data() + kSlack, lda, b.data() + kSlack, ldb,
                           c.data() + kSlack, ldc);
          naive_gemm_minus(m, n, k, a.data() + kSlack, lda, b.data() + kSlack, ldb,
                           ref.data() + kSlack, ldc);
          const double tol = 1e-13 * static_cast<double>(k + 1);
          for (std::size_t e = 0; e < c.size(); ++e) {
            const std::int64_t off = static_cast<std::int64_t>(e) - kSlack;
            const bool inside = off >= 0 && off < m * ldc && off % ldc < n;
            if (inside) {
              ASSERT_NEAR(c[e], ref[e], tol) << "element " << off;
            } else {
              ASSERT_EQ(std::bit_cast<std::uint64_t>(c[e]),
                        std::bit_cast<std::uint64_t>(c0[e]))
                  << "guard cell " << off << " was written";
            }
          }
          auto again = c0;
          blas::gemm_minus(m, n, k, a.data() + kSlack, lda, b.data() + kSlack, ldb,
                           again.data() + kSlack, ldc);
          ASSERT_EQ(std::memcmp(c.data(), again.data(), c.size() * sizeof(double)), 0)
              << "two calls on equal inputs differ";
        }
      }
    }
  }
}

/// trsm_lower_unit on each dispatch tier: m from 0 to one past an HPL
/// panel width (32), n around the AVX2 path's 4- and 16-column blocks and
/// at hpl_ckpt's widest trailing block (769), with tight and padded
/// leading dimensions. L's diagonal and upper triangle and every cell outside B's
/// window are NaN guards: reading one would poison B, and writing a B
/// guard changes its bits. Every 7th strictly-lower entry of L is zero.
TEST_P(BlasTiers, TrsmLowerUnitSweep) {
  const skt::testing::TierGuard guard(GetParam());
  if (enc::kernels::active_tier() != GetParam()) {
    GTEST_SKIP() << "tier not compiled in or not supported on this CPU";
  }
  const double guard_nan = std::bit_cast<double>(std::uint64_t{0x7ff8dead0000beefULL});
  constexpr std::int64_t kSlack = 5;
  std::uint64_t seed = 11;
  for (const std::int64_t m : {0, 1, 2, 7, 8, 32, 33}) {
    for (const std::int64_t n : {0, 1, 3, 4, 5, 15, 16, 17, 769}) {
      for (const std::int64_t pad : {0, 3}) {
        SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n << " pad=" << pad);
        const std::int64_t ldl = m + pad, ldb = n + 2 * pad;
        util::Xoshiro256 rng(seed++);
        std::vector<double> l(static_cast<std::size_t>(m * ldl + 2 * kSlack), guard_nan);
        for (std::int64_t i = 0; i < m; ++i) {
          for (std::int64_t k = 0; k < i; ++k) {
            l[static_cast<std::size_t>(kSlack + i * ldl + k)] =
                (i * m + k) % 7 == 0 ? 0.0 : 0.5 * rng.next_centered();
          }
        }
        std::vector<double> b0(static_cast<std::size_t>(m * ldb + 2 * kSlack), guard_nan);
        for (std::int64_t i = 0; i < m; ++i) {
          for (std::int64_t j = 0; j < n; ++j) {
            b0[static_cast<std::size_t>(kSlack + i * ldb + j)] = rng.next_centered();
          }
        }
        // Naive forward substitution over the strictly lower triangle.
        auto ref = b0;
        for (std::int64_t i = 0; i < m; ++i) {
          for (std::int64_t j = 0; j < n; ++j) {
            double acc = ref[static_cast<std::size_t>(kSlack + i * ldb + j)];
            for (std::int64_t k = 0; k < i; ++k) {
              acc -= l[static_cast<std::size_t>(kSlack + i * ldl + k)] *
                     ref[static_cast<std::size_t>(kSlack + k * ldb + j)];
            }
            ref[static_cast<std::size_t>(kSlack + i * ldb + j)] = acc;
          }
        }
        auto b = b0;
        blas::trsm_lower_unit(m, n, l.data() + kSlack, ldl, b.data() + kSlack, ldb);
        for (std::size_t e = 0; e < b.size(); ++e) {
          const std::int64_t off = static_cast<std::int64_t>(e) - kSlack;
          const bool inside = off >= 0 && off < m * ldb && off % ldb < n;
          if (inside) {
            ASSERT_NEAR(b[e], ref[e], 1e-12 * (1.0 + std::abs(ref[e]))) << "element " << off;
          } else {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(b[e]), std::bit_cast<std::uint64_t>(b0[e]))
                << "guard cell " << off << " was written";
          }
        }
        auto again = b0;
        blas::trsm_lower_unit(m, n, l.data() + kSlack, ldl, again.data() + kSlack, ldb);
        ASSERT_EQ(std::memcmp(b.data(), again.data(), b.size() * sizeof(double)), 0)
            << "two calls on equal inputs differ";
      }
    }
  }
}

/// A zero multiplier is skipped, not multiplied: with l_10 = l_20 = 0 an
/// infinite row 0 of B leaves rows 1 and 2 finite.
TEST_P(BlasTiers, TrsmSkipsZeroMultipliers) {
  const skt::testing::TierGuard guard(GetParam());
  if (enc::kernels::active_tier() != GetParam()) {
    GTEST_SKIP() << "tier not compiled in or not supported on this CPU";
  }
  constexpr std::int64_t n = 21;
  const double l[9] = {NAN, NAN, NAN, 0.0, NAN, NAN, 0.0, 0.5, NAN};
  std::vector<double> b(3 * n);
  for (std::int64_t j = 0; j < n; ++j) {
    b[static_cast<std::size_t>(j)] = INFINITY;
    b[static_cast<std::size_t>(n + j)] = 2.0 + static_cast<double>(j);
    b[static_cast<std::size_t>(2 * n + j)] = 1.0;
  }
  blas::trsm_lower_unit(3, n, l, 3, b.data(), n);
  for (std::int64_t j = 0; j < n; ++j) {
    EXPECT_EQ(b[static_cast<std::size_t>(n + j)], 2.0 + static_cast<double>(j)) << j;
    EXPECT_EQ(b[static_cast<std::size_t>(2 * n + j)], 1.0 - 0.5 * (2.0 + static_cast<double>(j)))
        << j;
  }
}

/// panel_column on each dispatch tier: rows and the panel width left
/// (len) around the AVX2 path's 4-wide head, body and masked tail, with
/// tight and padded leading dimensions. Every cell outside the rows'
/// [0, len) windows is a NaN guard. The scaled multipliers match the
/// scalar division exactly and the updated entries the naive update
/// within rounding; the returned row is the first maximum of |a[1]| as
/// stored, never a NaN row, and -1 when no row qualifies. Pattern 1 puts
/// NaN in a[1] of row 0 and a[0] of row 2 (a NaN multiplier turns the row
/// NaN); pattern 2 puts NaN in a[1] of every row; pattern 3 ties every
/// row's |a[1]| (u[1] = 0, a[1] = +-0.5), so the first row must win.
TEST_P(BlasTiers, PanelColumnSweep) {
  const skt::testing::TierGuard guard(GetParam());
  if (enc::kernels::active_tier() != GetParam()) {
    GTEST_SKIP() << "tier not compiled in or not supported on this CPU";
  }
  const double guard_nan = std::bit_cast<double>(std::uint64_t{0x7ff8dead0000beefULL});
  constexpr std::int64_t kSlack = 5;
  std::uint64_t seed = 31;
  for (const std::int64_t rows : {0, 1, 5, 64}) {
    for (const std::int64_t len : {1, 2, 4, 5, 8, 9, 31, 32}) {
      for (const std::int64_t pad : {0, 3}) {
        for (const int pattern : {0, 1, 2, 3}) {
          SCOPED_TRACE(::testing::Message() << "rows=" << rows << " len=" << len
                                            << " pad=" << pad << " pattern=" << pattern);
          const std::int64_t lda = len + pad;
          util::Xoshiro256 rng(seed++);
          std::vector<double> u(static_cast<std::size_t>(len + 2 * kSlack), guard_nan);
          const double pivot = 1.5 + rng.next_centered();
          u[kSlack] = pivot;
          for (std::int64_t c = 1; c < len; ++c) {
            u[static_cast<std::size_t>(kSlack + c)] = rng.next_centered();
          }
          std::vector<double> a0(static_cast<std::size_t>(rows * lda + 2 * kSlack), guard_nan);
          const auto at = [&](std::int64_t i, std::int64_t c) {
            return static_cast<std::size_t>(kSlack + i * lda + c);
          };
          for (std::int64_t i = 0; i < rows; ++i) {
            for (std::int64_t c = 0; c < len; ++c) a0[at(i, c)] = rng.next_centered();
          }
          if (pattern == 1) {
            if (rows > 0 && len > 1) a0[at(0, 1)] = NAN;
            if (rows > 2) a0[at(2, 0)] = NAN;
          } else if (pattern == 2 && len > 1) {
            for (std::int64_t i = 0; i < rows; ++i) a0[at(i, 1)] = NAN;
          } else if (pattern == 3 && len > 1) {
            u[kSlack + 1] = 0.0;
            for (std::int64_t i = 0; i < rows; ++i) a0[at(i, 1)] = i % 2 == 0 ? 0.5 : -0.5;
          }
          auto a = a0;
          const std::int64_t got =
              blas::panel_column(rows, len, a.data() + kSlack, lda, u.data() + kSlack, pivot);

          std::int64_t first_max = -1;
          double best = -1.0;
          for (std::size_t e = 0; e < a.size(); ++e) {
            const std::int64_t off = static_cast<std::int64_t>(e) - kSlack;
            const bool inside = off >= 0 && off < rows * lda && off % lda < len;
            if (!inside) {
              ASSERT_EQ(std::bit_cast<std::uint64_t>(a[e]), std::bit_cast<std::uint64_t>(a0[e]))
                  << "guard cell " << off << " was written";
              continue;
            }
            const std::int64_t i = off / lda, c = off % lda;
            const double l = a0[at(i, 0)] / pivot;
            if (c == 0) {
              ASSERT_EQ(std::bit_cast<std::uint64_t>(a[e]), std::bit_cast<std::uint64_t>(l));
              continue;
            }
            const double want = a0[e] - l * u[static_cast<std::size_t>(kSlack + c)];
            if (std::isnan(want)) {
              ASSERT_TRUE(std::isnan(a[e])) << "element " << i << "," << c;
            } else {
              ASSERT_NEAR(a[e], want, 1e-14) << "element " << i << "," << c;
            }
            if (c == 1 && std::abs(a[e]) > best) {
              best = std::abs(a[e]);
              first_max = i;
            }
          }
          ASSERT_EQ(got, first_max);
          if (got >= 0) {
            ASSERT_FALSE(std::isnan(a[at(got, 1)]));
          }
          if (pattern == 2 || len == 1 || rows == 0) {
            ASSERT_EQ(got, -1);
          } else if (pattern == 3) {
            ASSERT_EQ(got, 0);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Tiers, BlasTiers,
                         ::testing::Values(enc::kernels::Tier::kScalar,
                                           enc::kernels::Tier::kAvx2),
                         [](const auto& info) {
                           return std::string(enc::kernels::to_string(info.param));
                         });

TEST(Blas, TrsmLowerUnitSolves) {
  const std::int64_t m = 16, n = 9;
  auto l = random_matrix(m, m, 7);
  // Make it unit lower triangular (upper part is ignored by the kernel but
  // zero it in the reference multiply).
  for (std::int64_t i = 0; i < m; ++i) {
    l[static_cast<std::size_t>(i * m + i)] = 1.0;
    for (std::int64_t j = i + 1; j < m; ++j) l[static_cast<std::size_t>(i * m + j)] = 0.0;
  }
  const auto x_true = random_matrix(m, n, 8);
  // b = L * x
  std::vector<double> b(static_cast<std::size_t>(m * n), 0.0);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::int64_t kk = 0; kk <= i; ++kk) {
        acc += l[static_cast<std::size_t>(i * m + kk)] * x_true[static_cast<std::size_t>(kk * n + j)];
      }
      b[static_cast<std::size_t>(i * n + j)] = acc;
    }
  }
  blas::trsm_lower_unit(m, n, l.data(), m, b.data(), n);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(b[i], x_true[i], 1e-10);
}

TEST(Blas, TrsvUpperSolves) {
  const std::int64_t m = 12;
  auto u = random_matrix(m, m, 9);
  for (std::int64_t i = 0; i < m; ++i) {
    u[static_cast<std::size_t>(i * m + i)] += 4.0;  // well-conditioned diagonal
    for (std::int64_t j = 0; j < i; ++j) u[static_cast<std::size_t>(i * m + j)] = 0.0;
  }
  const auto x_true = random_matrix(m, 1, 10);
  std::vector<double> y(static_cast<std::size_t>(m), 0.0);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = i; j < m; ++j) {
      y[static_cast<std::size_t>(i)] +=
          u[static_cast<std::size_t>(i * m + j)] * x_true[static_cast<std::size_t>(j)];
    }
  }
  blas::trsv_upper(m, u.data(), m, y.data());
  for (std::int64_t i = 0; i < m; ++i) {
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], x_true[static_cast<std::size_t>(i)], 1e-10);
  }
}

// ----------------------------------------------------------- block-cyclic

class BlockCyclicProps
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t, int>> {};

TEST_P(BlockCyclicProps, RoundTripAndCounts) {
  const auto [n, nb, nprocs] = GetParam();
  const BlockCyclicDim dim(n, nb, nprocs);

  // Every global index maps to exactly one (owner, local) and back.
  std::int64_t total = 0;
  for (int p = 0; p < nprocs; ++p) total += dim.count(p);
  EXPECT_EQ(total, n);

  for (std::int64_t g = 0; g < n; ++g) {
    const int p = dim.owner(g);
    const std::int64_t l = dim.local(g);
    EXPECT_LT(l, dim.count(p));
    EXPECT_EQ(dim.global(p, l), g);
  }
  // local -> global is strictly increasing per process.
  for (int p = 0; p < nprocs; ++p) {
    for (std::int64_t l = 1; l < dim.count(p); ++l) {
      EXPECT_GT(dim.global(p, l), dim.global(p, l - 1));
    }
  }
}

TEST_P(BlockCyclicProps, LowerBoundConsistent) {
  const auto [n, nb, nprocs] = GetParam();
  const BlockCyclicDim dim(n, nb, nprocs);
  for (int p = 0; p < nprocs; ++p) {
    for (std::int64_t g = 0; g <= n; ++g) {
      const std::int64_t lb = dim.local_lower_bound(p, g);
      // Reference: first local index whose global is >= g.
      std::int64_t ref = dim.count(p);
      for (std::int64_t l = 0; l < dim.count(p); ++l) {
        if (dim.global(p, l) >= g) {
          ref = l;
          break;
        }
      }
      ASSERT_EQ(lb, ref) << "n=" << n << " nb=" << nb << " P=" << nprocs << " p=" << p
                         << " g=" << g;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, BlockCyclicProps,
                         ::testing::Values(std::make_tuple(64, 8, 4),
                                           std::make_tuple(100, 7, 3),
                                           std::make_tuple(13, 5, 2),
                                           std::make_tuple(1, 4, 3),
                                           std::make_tuple(0, 4, 2),
                                           std::make_tuple(31, 32, 2),
                                           std::make_tuple(96, 16, 1)));

TEST(BlockCyclic, RejectsBadParameters) {
  EXPECT_THROW(BlockCyclicDim(-1, 4, 2), std::invalid_argument);
  EXPECT_THROW(BlockCyclicDim(4, 0, 2), std::invalid_argument);
  EXPECT_THROW(BlockCyclicDim(4, 4, 0), std::invalid_argument);
}

}  // namespace
}  // namespace skt::hpl
