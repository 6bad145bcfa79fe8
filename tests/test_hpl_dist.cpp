// Distributed LU / back-substitution / verification, checked against a
// serial reference factorization for a sweep of (N, nb, P, Q) shapes.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "encoding/kernels.hpp"
#include "hpl/abft.hpp"
#include "hpl/dist_matrix.hpp"
#include "hpl/driver.hpp"
#include "hpl/lu.hpp"
#include "testing.hpp"
#include "util/rng.hpp"

namespace skt::hpl {
namespace {

using skt::testing::MiniCluster;

/// Serial reference: solve [A|b] by Gaussian elimination with partial
/// pivoting; returns x.
std::vector<double> reference_solve(std::int64_t n, std::uint64_t seed) {
  std::vector<double> a(static_cast<std::size_t>(n * (n + 1)));
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j <= n; ++j) {
      a[static_cast<std::size_t>(i * (n + 1) + j)] = util::element_value(
          seed, static_cast<std::uint64_t>(i), static_cast<std::uint64_t>(j));
    }
  }
  const std::int64_t ld = n + 1;
  for (std::int64_t k = 0; k < n; ++k) {
    std::int64_t piv = k;
    for (std::int64_t i = k + 1; i < n; ++i) {
      if (std::abs(a[static_cast<std::size_t>(i * ld + k)]) >
          std::abs(a[static_cast<std::size_t>(piv * ld + k)])) {
        piv = i;
      }
    }
    if (piv != k) {
      for (std::int64_t j = 0; j <= n; ++j) {
        std::swap(a[static_cast<std::size_t>(k * ld + j)],
                  a[static_cast<std::size_t>(piv * ld + j)]);
      }
    }
    const double pivot = a[static_cast<std::size_t>(k * ld + k)];
    for (std::int64_t i = k + 1; i < n; ++i) {
      const double l = a[static_cast<std::size_t>(i * ld + k)] / pivot;
      for (std::int64_t j = k; j <= n; ++j) {
        a[static_cast<std::size_t>(i * ld + j)] -= l * a[static_cast<std::size_t>(k * ld + j)];
      }
    }
  }
  std::vector<double> x(static_cast<std::size_t>(n));
  for (std::int64_t i = n - 1; i >= 0; --i) {
    double acc = a[static_cast<std::size_t>(i * ld + n)];
    for (std::int64_t j = i + 1; j < n; ++j) {
      acc -= a[static_cast<std::size_t>(i * ld + j)] * x[static_cast<std::size_t>(j)];
    }
    x[static_cast<std::size_t>(i)] = acc / a[static_cast<std::size_t>(i * ld + i)];
  }
  return x;
}

/// Factor and solve an n x n system on a P x Q grid, then check the
/// solution against the serial reference and the HPL residual test.
void solve_and_check(std::int64_t n, std::int64_t nb, int P, int Q) {
  const std::uint64_t seed = 77;
  const std::vector<double> x_ref = reference_solve(n, seed);

  MiniCluster mc(P * Q, 0);
  const auto result = mc.run(P * Q, [&](mpi::Comm& world) {
    mpi::Grid grid(world, P, Q);
    const std::int64_t elems = DistMatrix::max_local_elements(n, n + 1, nb, P, Q);
    std::vector<double> storage(static_cast<std::size_t>(elems));
    DistMatrix a(grid, n, n + 1, nb, storage);
    generate(a, seed);
    lu_factorize(grid, a, n, 0);
    const std::vector<double> x = back_substitute(world, grid, a, n);
    ASSERT_EQ(x.size(), static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_NEAR(x[static_cast<std::size_t>(i)], x_ref[static_cast<std::size_t>(i)], 1e-7)
          << "i=" << i;
    }
    const Residual res = verify(world, a, n, seed, x);
    EXPECT_TRUE(res.pass) << "scaled residual " << res.scaled;
    EXPECT_LT(res.scaled, 16.0);
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

class LuShapes
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t, int, int>> {};

TEST_P(LuShapes, SolvesAgainstSerialReference) {
  const auto [n, nb, P, Q] = GetParam();
  solve_and_check(n, nb, P, Q);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LuShapes,
    ::testing::Values(std::make_tuple(64, 8, 2, 2),    // aligned
                      std::make_tuple(60, 8, 2, 2),    // ragged last block
                      std::make_tuple(65, 16, 2, 3),   // rectangular grid
                      std::make_tuple(48, 4, 3, 2),    // more rows than cols
                      std::make_tuple(33, 32, 2, 2),   // nb > n/2
                      std::make_tuple(96, 8, 1, 4),    // single process row
                      std::make_tuple(96, 8, 4, 1),    // single process column
                      std::make_tuple(50, 8, 1, 1)));  // serial grid

/// The same solve with the trailing-update GEMM pinned to each kernel
/// tier; n = 100 with nb = 16 leaves ragged local blocks, so the AVX2
/// tier's fringe rows and columns run on every panel.
class LuTiers : public ::testing::TestWithParam<enc::kernels::Tier> {};

TEST_P(LuTiers, SolvesAgainstSerialReference) {
  const skt::testing::TierGuard guard(GetParam());
  if (enc::kernels::active_tier() != GetParam()) {
    GTEST_SKIP() << "tier not compiled in or not supported on this CPU";
  }
  solve_and_check(100, 16, 2, 2);
}

INSTANTIATE_TEST_SUITE_P(Tiers, LuTiers,
                         ::testing::Values(enc::kernels::Tier::kScalar,
                                           enc::kernels::Tier::kAvx2),
                         [](const auto& info) {
                           return std::string(enc::kernels::to_string(info.param));
                         });

TEST(Lu, PanelHookFiresPerPanelAndCanAbort) {
  MiniCluster mc(4, 0);
  const auto result = mc.run(4, [&](mpi::Comm& world) {
    mpi::Grid grid(world, 2, 2);
    const std::int64_t n = 64, nb = 8;
    const std::int64_t elems = DistMatrix::max_local_elements(n, n + 1, nb, 2, 2);
    std::vector<double> storage(static_cast<std::size_t>(elems));
    DistMatrix a(grid, n, n + 1, nb, storage);
    generate(a, 5);
    int hooks = 0;
    lu_factorize(grid, a, n, 0, [&](std::int64_t) { return ++hooks < 3; });
    EXPECT_EQ(hooks, 3);  // aborted after the third panel
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

TEST(Lu, RestartFromMidPanelMatchesFullRun) {
  // Factor to completion in one go; separately factor to panel 4, stop,
  // then resume from panel 4 — the final solutions must agree, which is
  // exactly what SKT-HPL's checkpoint/restore depends on.
  const std::int64_t n = 64, nb = 8;
  const std::uint64_t seed = 9;
  std::vector<double> x_full;
  {
    MiniCluster mc(4, 0);
    const auto result = mc.run(4, [&](mpi::Comm& world) {
      mpi::Grid grid(world, 2, 2);
      const std::int64_t elems = DistMatrix::max_local_elements(n, n + 1, nb, 2, 2);
      std::vector<double> storage(static_cast<std::size_t>(elems));
      DistMatrix a(grid, n, n + 1, nb, storage);
      generate(a, seed);
      lu_factorize(grid, a, n, 0);
      const auto x = back_substitute(world, grid, a, n);
      if (world.rank() == 0) x_full = x;
    });
    ASSERT_TRUE(result.completed) << result.abort_reason;
  }
  {
    MiniCluster mc(4, 0);
    const auto result = mc.run(4, [&](mpi::Comm& world) {
      mpi::Grid grid(world, 2, 2);
      const std::int64_t elems = DistMatrix::max_local_elements(n, n + 1, nb, 2, 2);
      std::vector<double> storage(static_cast<std::size_t>(elems));
      DistMatrix a(grid, n, n + 1, nb, storage);
      generate(a, seed);
      lu_factorize(grid, a, n, 0, [&](std::int64_t next) { return next < 4; });
      lu_factorize(grid, a, n, 4);  // resume
      const auto x = back_substitute(world, grid, a, n);
      for (std::size_t i = 0; i < x.size(); ++i) {
        ASSERT_EQ(x[i], x_full[i]) << i;  // bit-identical: same op order
      }
    });
    ASSERT_TRUE(result.completed) << result.abort_reason;
  }
}

TEST(Lu, PivotValuesGiveDeterminantMagnitude) {
  // |det(A)| = product of |U(j,j)| — checks the replicated pivot-value
  // collection against a serial elimination.
  const std::int64_t n = 24, nb = 4;
  const std::uint64_t seed = 21;
  // Serial reference determinant magnitude via the same generator.
  double ref_logdet = 0.0;
  {
    std::vector<double> m(static_cast<std::size_t>(n * n));
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        m[static_cast<std::size_t>(i * n + j)] = util::element_value(
            seed, static_cast<std::uint64_t>(i), static_cast<std::uint64_t>(j));
      }
    }
    for (std::int64_t k = 0; k < n; ++k) {
      std::int64_t piv = k;
      for (std::int64_t i = k + 1; i < n; ++i) {
        if (std::abs(m[static_cast<std::size_t>(i * n + k)]) >
            std::abs(m[static_cast<std::size_t>(piv * n + k)])) {
          piv = i;
        }
      }
      for (std::int64_t j = 0; j < n; ++j) {
        std::swap(m[static_cast<std::size_t>(k * n + j)],
                  m[static_cast<std::size_t>(piv * n + j)]);
      }
      const double p = m[static_cast<std::size_t>(k * n + k)];
      ref_logdet += std::log(std::abs(p));
      for (std::int64_t i = k + 1; i < n; ++i) {
        const double l = m[static_cast<std::size_t>(i * n + k)] / p;
        for (std::int64_t j = k; j < n; ++j) {
          m[static_cast<std::size_t>(i * n + j)] -= l * m[static_cast<std::size_t>(k * n + j)];
        }
      }
    }
  }
  MiniCluster mc(4, 0);
  const auto result = mc.run(4, [&](mpi::Comm& world) {
    mpi::Grid grid(world, 2, 2);
    const std::int64_t elems = DistMatrix::max_local_elements(n, n + 1, nb, 2, 2);
    std::vector<double> storage(static_cast<std::size_t>(elems));
    DistMatrix a(grid, n, n + 1, nb, storage);
    generate(a, seed);
    std::vector<double> pivots;
    lu_factorize(grid, a, n, 0, {}, &pivots);
    ASSERT_EQ(pivots.size(), static_cast<std::size_t>(n));
    double logdet = 0.0;
    for (double p : pivots) {
      ASSERT_NE(p, 0.0);
      logdet += std::log(std::abs(p));
    }
    EXPECT_NEAR(logdet, ref_logdet, 1e-8);
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

/// apply_row_interchanges against the sequential swaps j0+jj <-> piv[jj]
/// on the gathered matrix, over every global column outside [c0, c1).
/// Q = 2 puts the skipped range on one process column only, so the other
/// column moves whole rows. n = 45 with nb = 8 leaves a ragged last row
/// block of 5 rows.
class RowInterchanges : public ::testing::TestWithParam<int> {};

TEST_P(RowInterchanges, MatchSequentialSwaps) {
  const int P = GetParam();
  const int Q = 2;
  const std::int64_t n = 45, ncols = n + 1, nb = 8;
  const auto value = [](std::int64_t gi, std::int64_t gj) {
    return static_cast<double>(gi * 1000 + gj) + 0.25;
  };
  struct Case {
    std::string name;
    std::int64_t j0;
    std::vector<std::int64_t> piv;
  };
  std::vector<Case> cases = {
      {"identity", 16, {16, 17, 18, 19, 20, 21, 22, 23}},
      {"repeated target in the ragged block", 16, {44, 44, 44, 44, 44, 44, 44, 44}},
      {"chained", 16, {17, 18, 19, 20, 21, 22, 23, 24}},
      {"inside the panel's row block", 16, {23, 22, 21, 20, 20, 21, 22, 23}},
      {"below the panel's row block", 16, {24, 27, 30, 33, 36, 39, 42, 44}},
      {"ragged last panel", 40, {44, 41, 44, 43, 44}},
      {"first panel", 0, {9, 9, 2, 40, 4, 5, 33, 7}}};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Case c{"random " + std::to_string(seed), 8 * static_cast<std::int64_t>(seed), {}};
    for (std::uint64_t jj = 0; jj < 8; ++jj) {
      const std::int64_t lo = c.j0 + static_cast<std::int64_t>(jj);
      const std::uint64_t draw = util::splitmix64(seed * 64 + jj);
      c.piv.push_back(lo + static_cast<std::int64_t>(draw % static_cast<std::uint64_t>(n - lo)));
    }
    cases.push_back(c);
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::int64_t c0 = c.j0;
    const std::int64_t c1 = c.j0 + static_cast<std::int64_t>(c.piv.size());
    std::vector<double> ref(static_cast<std::size_t>(n * ncols));
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < ncols; ++j) {
        ref[static_cast<std::size_t>(i * ncols + j)] = value(i, j);
      }
    }
    for (std::size_t jj = 0; jj < c.piv.size(); ++jj) {
      const std::int64_t r0 = c.j0 + static_cast<std::int64_t>(jj);
      for (std::int64_t j = 0; j < ncols; ++j) {
        if (j >= c0 && j < c1) continue;
        std::swap(ref[static_cast<std::size_t>(r0 * ncols + j)],
                  ref[static_cast<std::size_t>(c.piv[jj] * ncols + j)]);
      }
    }
    MiniCluster mc(P * Q, 0);
    const auto result = mc.run(P * Q, [&](mpi::Comm& world) {
      mpi::Grid grid(world, P, Q);
      std::vector<double> storage(
          static_cast<std::size_t>(DistMatrix::max_local_elements(n, ncols, nb, P, Q)));
      DistMatrix a(grid, n, ncols, nb, storage);
      for (std::int64_t li = 0; li < a.lrows(); ++li) {
        for (std::int64_t lj = 0; lj < a.lcols(); ++lj) {
          a.at(li, lj) = value(a.rows().global(a.prow(), li), a.cols().global(a.pcol(), lj));
        }
      }
      apply_row_interchanges(grid.col(), a, c.j0, c.piv,
                             a.cols().local_lower_bound(a.pcol(), c0),
                             a.cols().local_lower_bound(a.pcol(), c1));
      for (std::int64_t li = 0; li < a.lrows(); ++li) {
        const std::int64_t gi = a.rows().global(a.prow(), li);
        for (std::int64_t lj = 0; lj < a.lcols(); ++lj) {
          const std::int64_t gj = a.cols().global(a.pcol(), lj);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(a.at(li, lj)),
                    std::bit_cast<std::uint64_t>(ref[static_cast<std::size_t>(gi * ncols + gj)]))
              << "row " << gi << " col " << gj;
        }
      }
    });
    ASSERT_TRUE(result.completed) << result.abort_reason;
  }
}

INSTANTIATE_TEST_SUITE_P(ProcessRows, RowInterchanges, ::testing::Values(1, 2, 3, 4));

/// Messages of a job that only factorizes, less those of the same job
/// without the factorization (grid set-up).
std::uint64_t factorization_messages(std::int64_t n, std::int64_t nb, int P, int Q) {
  std::uint64_t messages[2] = {0, 0};
  for (const bool factor : {false, true}) {
    MiniCluster mc(P * Q, 0);
    const auto result = mc.run(P * Q, [&](mpi::Comm& world) {
      mpi::Grid grid(world, P, Q);
      std::vector<double> storage(
          static_cast<std::size_t>(DistMatrix::max_local_elements(n, n + 1, nb, P, Q)));
      DistMatrix a(grid, n, n + 1, nb, storage);
      generate(a, 41);
      if (factor) lu_factorize(grid, a, n, 0);
    });
    EXPECT_TRUE(result.completed) << result.abort_reason;
    messages[factor ? 1 : 0] = result.wire_messages;
  }
  return messages[1] - messages[0];
}

TEST(Lu, MessageCountIsOneExchangePerColumnPlusPerPanelConstant) {
  // Per column, one pivot exchange down the panel's process column:
  // recursive doubling over p2 = bit_floor(P) ranks plus a fold in and out
  // for the P - p2 others (P = 2: two messages). Per panel, at most: the
  // strip broadcast with the pivot list along each process row (Q - 1
  // each); in each process column, one interchange message each way
  // between the panel's process row and every other one (every moved row
  // comes from or lands in the panel's row block); and the U12 broadcast
  // down each process column. Per-column row swaps exceed the bound.
  for (const auto& [P, Q] : {std::pair{2, 2}, std::pair{3, 2}}) {
    const std::int64_t n = 64, nb = 8, nblk = n / nb;
    const int p2 = static_cast<int>(std::bit_floor(static_cast<unsigned>(P)));
    const std::int64_t per_column = p2 * std::countr_zero(static_cast<unsigned>(p2)) + 2 * (P - p2);
    const std::int64_t per_panel = P * (Q - 1) + Q * 2 * (P - 1) + Q * (P - 1);
    const std::uint64_t bound = static_cast<std::uint64_t>(n * per_column + nblk * per_panel);
    EXPECT_LE(factorization_messages(n, nb, P, Q), bound) << P << "x" << Q;
  }
}

/// What each rank of a factorization that must fail saw: the error text
/// of every rank that threw it, "aborted" for a rank unwound by the job
/// abort, "returned" for one that finished.
struct FailedFactorization {
  mpi::JobResult result;
  int thrown = 0;
  std::vector<std::string> outcome;
};

constexpr std::int64_t kPoisonedN = 48, kPoisonedNb = 8;

/// lu_factorize on a P x Q grid (kPoisonedN, kPoisonedNb, seed 13) after
/// `poison` has edited each rank's block. Each rank that throws holds the
/// abort until P ranks have thrown — the panel's process column — so none
/// of them is unwound by another's abort first; a rank that went on
/// instead never arrives and the wait times out.
FailedFactorization factor_poisoned(int P, int Q,
                                    const std::function<void(int, DistMatrix&)>& poison) {
  const std::int64_t n = kPoisonedN, nb = kPoisonedNb;
  std::mutex mu;
  std::condition_variable cv;
  FailedFactorization f;
  f.outcome.assign(static_cast<std::size_t>(P * Q), "returned");
  MiniCluster mc(P * Q, 0);
  f.result = mc.run(P * Q, [&](mpi::Comm& world) {
    mpi::Grid grid(world, P, Q);
    std::vector<double> storage(
        static_cast<std::size_t>(DistMatrix::max_local_elements(n, n + 1, nb, P, Q)));
    DistMatrix a(grid, n, n + 1, nb, storage);
    generate(a, 13);
    poison(world.rank(), a);
    std::string& mine = f.outcome[static_cast<std::size_t>(world.rank())];
    try {
      lu_factorize(grid, a, n, 0);
    } catch (const mpi::JobAborted&) {
      const std::lock_guard<std::mutex> lock(mu);
      mine = "aborted";
      throw;
    } catch (const std::runtime_error& e) {
      std::unique_lock<std::mutex> lock(mu);
      mine = e.what();
      ++f.thrown;
      cv.notify_all();
      cv.wait_for(lock, std::chrono::seconds(20), [&] { return f.thrown == P; });
      throw;
    }
  });
  return f;
}

/// Every rank of the process column owning global column `col` threw
/// `expected` and aborted the job with it; every other rank was unwound.
void expect_column_abort(const FailedFactorization& f, int P, int Q, std::int64_t col,
                         const std::string& expected) {
  const int panel_col = BlockCyclicDim(kPoisonedN + 1, kPoisonedNb, Q).owner(col);
  EXPECT_FALSE(f.result.completed);
  EXPECT_NE(f.result.abort_reason.find(expected), std::string::npos) << f.result.abort_reason;
  EXPECT_EQ(f.thrown, P);
  for (int r = 0; r < P * Q; ++r) {
    const bool in_panel_col = r % Q == panel_col;
    EXPECT_EQ(f.outcome[static_cast<std::size_t>(r)], in_panel_col ? expected : "aborted")
        << "rank " << r;
  }
}

/// Sets every local entry of global column `col` to `v`.
void fill_column(DistMatrix& a, std::int64_t col, double v) {
  for (std::int64_t lj = 0; lj < a.lcols(); ++lj) {
    if (a.cols().global(a.pcol(), lj) != col) continue;
    for (std::int64_t li = 0; li < a.lrows(); ++li) a.at(li, lj) = v;
  }
}

/// A column that is zero in every row stays zero through the elimination,
/// so its pivot search finds nothing. Every rank of the panel's process
/// column must throw the same error, and the job must abort, not hang.
class ZeroPivot : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ZeroPivot, EveryPanelColumnRankAbortsAtTheColumn) {
  const auto [P, Q] = GetParam();
  const std::int64_t jz = 21;
  const auto f = factor_poisoned(P, Q, [&](int, DistMatrix& a) { fill_column(a, jz, 0.0); });
  expect_column_abort(f, P, Q, jz, "lu_factorize: zero pivot at column " + std::to_string(jz));
}

INSTANTIATE_TEST_SUITE_P(Grids, ZeroPivot,
                         ::testing::Values(std::pair{2, 2}, std::pair{3, 2}),
                         [](const auto& info) {
                           return std::to_string(info.param.first) + "x" +
                                  std::to_string(info.param.second);
                         });

/// A NaN never wins the pivot search (|NaN| > best is false), and its
/// multiplier turns its row NaN, so NaNs end as a column whose every
/// candidate is NaN. That column must fail like a zero one, on every
/// rank of its process column and before any of them touches a row; the
/// search is fused into the elimination pass on both kernel tiers, so
/// both run.
class NanPivot
    : public ::testing::TestWithParam<std::tuple<std::pair<int, int>, enc::kernels::Tier>> {
 protected:
  void SetUp() override {
    guard_.emplace(std::get<1>(GetParam()));
    if (enc::kernels::active_tier() != std::get<1>(GetParam())) {
      GTEST_SKIP() << "tier not compiled in or not supported on this CPU";
    }
  }
  std::optional<skt::testing::TierGuard> guard_;
};

const std::string kNanPivot = "lu_factorize: every pivot candidate is NaN at column ";

TEST_P(NanPivot, ColumnOfNaNsAbortsAtTheColumn) {
  const auto [P, Q] = std::get<0>(GetParam());
  const std::int64_t jz = 21;
  const auto f = factor_poisoned(P, Q, [&](int, DistMatrix& a) { fill_column(a, jz, NAN); });
  expect_column_abort(f, P, Q, jz, kNanPivot + std::to_string(jz));
}

TEST_P(NanPivot, OneNaNAbortsAtOneColumn) {
  // The NaN's row either becomes a pivot row first, and then every row
  // below it is NaN in the NaN's column, or it never wins and is the last
  // row left: the factorization stops at the NaN's column or the last one.
  const auto [P, Q] = std::get<0>(GetParam());
  std::int64_t nan_col = -1;
  const auto f = factor_poisoned(P, Q, [&](int rank, DistMatrix& a) {
    if (rank != 3) return;
    a.at(5, 3) = NAN;
    nan_col = a.cols().global(a.pcol(), 3);
  });
  const std::size_t at = f.result.abort_reason.find(kNanPivot);
  ASSERT_NE(at, std::string::npos) << f.result.abort_reason;
  const std::int64_t col = std::stoll(f.result.abort_reason.substr(at + kNanPivot.size()));
  EXPECT_TRUE(col == nan_col || col == kPoisonedN - 1)
      << "column " << col << ", NaN in " << nan_col;
  expect_column_abort(f, P, Q, col, kNanPivot + std::to_string(col));
}

std::string grid_and_tier(
    const ::testing::TestParamInfo<std::tuple<std::pair<int, int>, enc::kernels::Tier>>& info) {
  const auto [P, Q] = std::get<0>(info.param);
  return std::to_string(P) + "x" + std::to_string(Q) + "_" +
         std::string(enc::kernels::to_string(std::get<1>(info.param)));
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndTiers, NanPivot,
    ::testing::Combine(::testing::Values(std::pair{2, 2}, std::pair{3, 2}),
                       ::testing::Values(enc::kernels::Tier::kScalar, enc::kernels::Tier::kAvx2)),
    grid_and_tier);

TEST(Lu, MaxProblemSizeFitsBudget) {
  const std::size_t budget = 4u << 20;  // 4 MiB per rank
  const std::int64_t n = max_problem_size(budget, 16, 2, 2);
  EXPECT_GT(n, 0);
  EXPECT_EQ(n % 16, 0);
  EXPECT_LE(
      static_cast<std::size_t>(DistMatrix::max_local_elements(n, n + 1, 16, 2, 2)) * 8,
      budget);
  // One more block row would not fit.
  const std::int64_t n2 = n + 16;
  EXPECT_GT(static_cast<std::size_t>(DistMatrix::max_local_elements(n2, n2 + 1, 16, 2, 2)) * 8,
            budget);
}

TEST(Hpl, DriverRunsAndVerifies) {
  MiniCluster mc(4, 0);
  HplResult out;
  const auto result = mc.run(4, [&](mpi::Comm& world) {
    HplConfig config;
    config.n = 96;
    config.nb = 16;
    config.grid_p = 2;
    config.grid_q = 2;
    const HplResult r = run_hpl(world, config);
    if (world.rank() == 0) out = r;
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
  EXPECT_TRUE(out.residual.pass) << out.residual.scaled;
  EXPECT_GT(out.gflops, 0.0);
}

TEST(Abft, ChecksumsHoldThroughFactorization) {
  MiniCluster mc(4, 0);
  AbftResult out;
  const auto result = mc.run(4, [&](mpi::Comm& world) {
    AbftConfig config;
    config.hpl.n = 96;
    config.hpl.nb = 16;
    config.hpl.grid_p = 2;
    config.hpl.grid_q = 2;
    config.verify_every_panels = 2;
    const AbftResult r = run_abft_hpl(world, config);
    if (world.rank() == 0) out = r;
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
  EXPECT_TRUE(out.checksum_ok);
  EXPECT_EQ(out.checks, 3);  // panels 2, 4, 6 of 6 total -> next_panel 2,4,6
  EXPECT_TRUE(out.hpl.residual.pass) << out.hpl.residual.scaled;
}

TEST(Abft, DetectsInjectedCorruption) {
  MiniCluster mc(4, 0);
  bool detected = false;
  const auto result = mc.run(4, [&](mpi::Comm& world) {
    mpi::Grid grid(world, 2, 2);
    const std::int64_t n = 64, nb = 8;
    const std::int64_t ncols = n + 2;
    const std::int64_t elems = DistMatrix::max_local_elements(n, ncols, nb, 2, 2);
    std::vector<double> storage(static_cast<std::size_t>(elems));
    DistMatrix a(grid, n, ncols, nb, storage);
    // Use the abft driver but corrupt one trailing element mid-run via the
    // hook: simplest path is to run the driver twice; here we corrupt
    // through a custom factorization instead.
    for (std::int64_t li = 0; li < a.lrows(); ++li) {
      const auto gi = static_cast<std::uint64_t>(a.rows().global(a.prow(), li));
      for (std::int64_t lj = 0; lj < a.lcols(); ++lj) {
        const std::int64_t gj = a.cols().global(a.pcol(), lj);
        if (gj <= n) {
          a.at(li, lj) = util::element_value(3, gi, static_cast<std::uint64_t>(gj));
        } else {
          double acc = 0;
          for (std::int64_t j = 0; j <= n; ++j) {
            acc += util::element_value(3, gi, static_cast<std::uint64_t>(j));
          }
          a.at(li, lj) = acc;
        }
      }
    }
    // Corrupt one element of the trailing matrix on rank 0 (silent data
    // corruption model).
    if (world.rank() == 0 && a.lrows() > 2 && a.lcols() > 2) {
      a.at(a.lrows() - 1, a.lcols() - 2) += 1000.0;
    }
    AbftConfig config;
    config.hpl.n = n;
    config.hpl.nb = nb;
    // Run one panel then verify manually via run_abft-style check: easiest
    // is to reuse verify() on a bogus solution... instead run the driver's
    // internal check through run_abft_hpl on a fresh matrix is covered
    // above; here assert the invariant check itself fails.
    lu_factorize(grid, a, n, 0, [&](std::int64_t next) { return next < 1; });
    // After one panel the corrupted element breaks the row-sum invariant.
    // (Reaching into the internal checker through the public driver isn't
    // possible, so recompute the invariant here: for active rows the
    // eliminated columns are mathematically zero, so sum j0..n only.)
    const std::int64_t j0 = nb;
    const int qs = a.cols().owner(n + 1);
    std::vector<double> partial(static_cast<std::size_t>(a.lrows()), 0.0);
    for (std::int64_t li = a.rows().local_lower_bound(grid.prow(), j0); li < a.lrows(); ++li) {
      double acc = 0;
      for (std::int64_t lj = 0; lj < a.lcols(); ++lj) {
        const std::int64_t gj = a.cols().global(grid.pcol(), lj);
        if (gj < j0 || gj >= n + 1) continue;
        acc += a.at(li, lj);
      }
      partial[static_cast<std::size_t>(li)] = acc;
    }
    std::vector<double> sums(partial.size());
    grid.row().reduce<double>(qs, partial, sums, mpi::Sum{});
    if (grid.pcol() == qs) {
      const std::int64_t lcS = a.cols().local(n + 1);
      for (std::int64_t li = a.rows().local_lower_bound(grid.prow(), j0); li < a.lrows();
           ++li) {
        if (std::abs(a.at(li, lcS) - sums[static_cast<std::size_t>(li)]) > 1.0) {
          detected = true;
        }
      }
    }
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
  EXPECT_TRUE(detected);
}

}  // namespace
}  // namespace skt::hpl
