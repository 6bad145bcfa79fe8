#include "hpl/abft.hpp"

#include <cmath>
#include <vector>

#include "hpl/dist_matrix.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace skt::hpl {
namespace {

/// Relative tolerance for the row-sum invariant (grows with accumulated
/// floating-point error, so it is scaled by the row's magnitude and n).
constexpr double kTolerance = 1e-9;

/// Check the row-sum invariant for the active rows (global row >= j0).
///
/// An active row's eliminated columns (j < j0) are mathematically zero —
/// the storage slots hold L multipliers, but the row-operation view of the
/// row is zero there — so the invariant is simply
///     s_i == sum_{j0 <= j <= n} A(i, j).
/// The per-row verdicts are reduced along the process rows to the checksum
/// column's owner, then agreed grid-wide. Returns the global verdict.
bool verify_row_sums(mpi::Grid& grid, DistMatrix& a, std::int64_t n, std::int64_t j0) {
  const std::int64_t scol = n + 1;  // checksum column
  const int qs = a.cols().owner(scol);
  const std::int64_t lcS = a.cols().local(scol);
  const std::int64_t li0 = a.rows().local_lower_bound(a.prow(), j0);

  std::vector<double> partial(static_cast<std::size_t>(a.lrows() - li0), 0.0);
  std::vector<double> scale(partial.size(), 0.0);
  for (std::int64_t li = li0; li < a.lrows(); ++li) {
    double acc = 0.0;
    double mag = 0.0;
    const double* row = a.row_ptr(li);
    for (std::int64_t lj = 0; lj < a.lcols(); ++lj) {
      const std::int64_t gj = a.cols().global(a.pcol(), lj);
      if (gj < j0 || gj >= scol) continue;  // eliminated columns are zero
      acc += row[lj];
      mag += std::abs(row[lj]);
    }
    partial[static_cast<std::size_t>(li - li0)] = acc;
    scale[static_cast<std::size_t>(li - li0)] = mag;
  }
  std::vector<double> sums(partial.size());
  std::vector<double> mags(scale.size());
  grid.row().reduce<double>(qs, partial, sums, mpi::Sum{});
  grid.row().reduce<double>(qs, scale, mags, mpi::Sum{});

  std::uint8_t ok = 1;
  if (grid.pcol() == qs) {
    for (std::int64_t li = li0; li < a.lrows(); ++li) {
      const double expect = a.at(li, lcS);
      const double got = sums[static_cast<std::size_t>(li - li0)];
      const double tol = kTolerance * (mags[static_cast<std::size_t>(li - li0)] + 1.0) *
                         static_cast<double>(n);
      if (std::abs(expect - got) > tol) {
        ok = 0;
        break;
      }
    }
  }
  // Everyone must agree; reduce over the full grid (row comm then col comm).
  ok = grid.row().allreduce_value<std::uint8_t>(ok, mpi::Min{});
  ok = grid.col().allreduce_value<std::uint8_t>(ok, mpi::Min{});
  return ok == 1;
}

}  // namespace

AbftResult run_abft_hpl(mpi::Comm& world, const AbftConfig& config) {
  const HplConfig& h = config.hpl;
  mpi::Grid grid(world, h.grid_p, h.grid_q);

  // [A | b | s]: n+2 columns.
  const std::int64_t ncols = h.n + 2;
  const std::int64_t elems =
      DistMatrix::max_local_elements(h.n, ncols, h.nb, h.grid_p, h.grid_q);
  std::vector<double> storage(static_cast<std::size_t>(elems));
  DistMatrix a(grid, h.n, ncols, h.nb, storage);

  // Generate [A | b] from the hashed generator and s as exact row sums.
  for (std::int64_t li = 0; li < a.lrows(); ++li) {
    const auto gi = static_cast<std::uint64_t>(a.rows().global(a.prow(), li));
    double* row = a.row_ptr(li);
    for (std::int64_t lj = 0; lj < a.lcols(); ++lj) {
      const std::int64_t gj = a.cols().global(a.pcol(), lj);
      if (gj <= h.n) {
        row[lj] = util::element_value(h.seed, gi, static_cast<std::uint64_t>(gj));
      } else {
        // s_i: full row sum, recomputed independently of ownership.
        double acc = 0.0;
        for (std::int64_t j = 0; j <= h.n; ++j) {
          acc += util::element_value(h.seed, gi, static_cast<std::uint64_t>(j));
        }
        row[lj] = acc;
      }
    }
  }
  world.barrier();

  AbftResult result;
  const double virtual_before = world.virtual_seconds();
  util::WallTimer timer;

  const PanelHook hook = [&](std::int64_t next_panel) {
    if (config.verify_every_panels > 0 && next_panel % config.verify_every_panels == 0) {
      ++result.checks;
      const std::int64_t j0 = next_panel * h.nb;
      if (!verify_row_sums(grid, a, h.n, std::min(j0, h.n))) {
        result.checksum_ok = false;
      }
    }
    return true;
  };
  lu_factorize(grid, a, h.n, 0, hook);
  const std::vector<double> x = back_substitute(world, grid, a, h.n);
  const double elapsed = timer.seconds();
  const double virtual_delta = world.virtual_seconds() - virtual_before;

  result.hpl.elapsed_s = elapsed;
  result.hpl.virtual_s = virtual_delta;
  result.hpl.gflops = hpl_flops(h.n) / (elapsed + virtual_delta) * 1e-9;
  result.hpl.residual = verify(world, a, h.n, h.seed, x);
  return result;
}

}  // namespace skt::hpl
