// Distributed dense LU with partial pivoting on the augmented system
// [A | b] — the computational core of HPL (Section 5.1 of the paper):
//
//   generate     — fill the local blocks from the stateless hashed
//                  generator (HPL's fixed-seed random matrix);
//   lu_factorize — right-looking panel LU with row pivoting; a boundary
//                  hook fires after every panel so SKT-HPL can checkpoint
//                  at elimination-loop boundaries (Fig. 9);
//   back_substitute — distributed block back substitution producing the
//                  replicated solution x;
//   verify       — HPL's scaled residual, recomputed against the
//                  regenerated A so it works after any restart.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "hpl/dist_matrix.hpp"
#include "mpi/comm.hpp"
#include "mpi/grid.hpp"

namespace skt::hpl {

/// Fill the local part of [A | b]: element (i, j) = hash(seed, i, j),
/// column N being b. Deterministic and location-independent.
void generate(DistMatrix& a, std::uint64_t seed);

/// Called after panel k completes (all collectives quiesced). Returning
/// false aborts factorization early (unused by HPL; available for tests).
using PanelHook = std::function<bool(std::int64_t next_panel)>;

/// Eliminate columns [start_panel*nb, N) of the N x (N+1) augmented
/// matrix. All ranks of the grid must call collectively. Pivoting moves
/// whole rows — the stored L, the trailing columns and b — as HPL does.
/// Per column, one pivot exchange down the panel's process column carries
/// the max-loc candidate and row j (HPL_pdmxswp); per panel, the pivot list
/// rides in the panel-strip row broadcast and the composed interchanges
/// move with one message per process-row pair (HPL_pdlaswp). Throws
/// std::runtime_error ("zero pivot at column j") on every rank of the
/// panel's process column alike.
///
/// When `pivot_values` is non-null it is extended with U(j,j) for every
/// eliminated column j, replicated on all ranks (ABFT's unscaled-L
/// correction needs them). Only meaningful with start_panel == 0 unless
/// the caller persisted earlier entries.
void lu_factorize(mpi::Grid& grid, DistMatrix& a, std::int64_t n, std::int64_t start_panel,
                  const PanelHook& hook = {}, std::vector<double>* pivot_values = nullptr);

/// Apply one panel's row interchanges — rows j0 + jj and piv[jj] swapped
/// for jj = 0, 1, ... in order — to every local column outside
/// [skip_lc0, skip_lc1) (lu_factorize skips the panel, already swapped as it
/// was factored). The swaps are composed into one permutation first; each
/// process row then sends every other process row that gets some of its
/// rows one message holding them, and moves its own rows locally.
/// Bit-identical to the sequential swaps. Collective over the process
/// column's `col` communicator; all members pass the same j0 and piv.
void apply_row_interchanges(mpi::Comm& col, DistMatrix& a, std::int64_t j0,
                            std::span<const std::int64_t> piv, std::int64_t skip_lc0,
                            std::int64_t skip_lc1);

/// Solve U x = y (y = transformed b in column N). Returns the full
/// solution vector replicated on every rank. `world` is the grid's parent
/// communicator, used for the final replication.
std::vector<double> back_substitute(mpi::Comm& world, mpi::Grid& grid, DistMatrix& a,
                                    std::int64_t n);

struct Residual {
  double r_inf = 0.0;       ///< ||Ax - b||_inf
  double a_inf = 0.0;       ///< ||A||_inf
  double b_inf = 0.0;       ///< ||b||_inf
  double x_inf = 0.0;       ///< ||x||_inf
  double scaled = 0.0;      ///< HPL's scaled residual
  bool pass = false;        ///< scaled < 16 (HPL's acceptance threshold)
};

/// Recompute the HPL residual ||Ax-b|| / (eps (||A|| ||x|| + ||b||) N)
/// against the regenerated matrix. Collective over `world`.
Residual verify(mpi::Comm& world, const DistMatrix& a, std::int64_t n, std::uint64_t seed,
                const std::vector<double>& x);

/// HPL's flop count for factor + solve of an N x N system.
[[nodiscard]] constexpr double hpl_flops(std::int64_t n) {
  const double dn = static_cast<double>(n);
  return 2.0 / 3.0 * dn * dn * dn + 3.0 / 2.0 * dn * dn;
}

}  // namespace skt::hpl
