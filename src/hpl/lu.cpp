#include "hpl/lu.hpp"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "hpl/blas.hpp"
#include "telemetry/trace.hpp"
#include "util/rng.hpp"

namespace skt::hpl {
namespace {

constexpr mpi::Tag kTagPivot = 101;
constexpr mpi::Tag kTagYToDiag = 102;
constexpr mpi::Tag kTagXToStore = 103;
constexpr mpi::Tag kTagPartial = 104;
constexpr mpi::Tag kTagInterchange = 105;

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

/// The max-loc state before any row is seen; it loses to every real
/// candidate, and a column whose every entry is NaN leaves it standing.
constexpr mpi::ValueLoc kNoCandidate{-1.0, std::numeric_limits<std::int64_t>::max()};

/// One column's pivot search state as it travels through the pivot
/// exchange (HPL's HPL_pdmxswp work buffer): the max-loc pair of |A(i, j)|
/// over the rows seen so far, the w-wide panel row it names, and the
/// panel's current row j once its owner's contribution has been merged.
struct PivotCandidate {
  mpi::ValueLoc best = kNoCandidate;
  std::vector<double> row;    ///< panel row `best.index` (pre-swap)
  std::vector<double> row_j;  ///< panel row j (pre-swap); empty until merged

  /// Wire form: `best`, the candidate row, then row j when held — at most
  /// one candidate row plus row j per message; the length tells which.
  [[nodiscard]] std::vector<std::byte> pack() const {
    const std::size_t w_bytes = row.size() * sizeof(double);
    std::vector<std::byte> out(sizeof best + (row_j.empty() ? 1 : 2) * w_bytes);
    std::memcpy(out.data(), &best, sizeof best);
    std::memcpy(out.data() + sizeof best, row.data(), w_bytes);
    if (!row_j.empty()) std::memcpy(out.data() + sizeof best + w_bytes, row_j.data(), w_bytes);
    return out;
  }

  /// Merge a partner's packed state: keep the MaxLoc winner (larger
  /// |value|, then smaller row — one order every rank agrees on) and adopt
  /// row j if the partner holds it.
  void merge(const std::vector<std::byte>& in) {
    const std::size_t w_bytes = row.size() * sizeof(double);
    const bool has_j = in.size() == sizeof best + 2 * w_bytes;
    if (!has_j && in.size() != sizeof best + w_bytes) {
      throw std::logic_error("pivot exchange: message size mismatch");
    }
    mpi::ValueLoc theirs;
    std::memcpy(&theirs, in.data(), sizeof theirs);
    const mpi::ValueLoc winner = mpi::MaxLoc{}(best, theirs);
    if (winner.index != best.index) {
      best = winner;
      std::memcpy(row.data(), in.data() + sizeof best, w_bytes);
    }
    if (has_j && row_j.empty()) {
      row_j.resize(row.size());
      std::memcpy(row_j.data(), in.data() + sizeof best + w_bytes, w_bytes);
    }
  }
};

/// Combine every process row's candidate over the column communicator so
/// that all of them end with the global winner, its row and row j: a
/// pairwise exchange per round of recursive doubling over the largest
/// power of two p2 <= P, the P - p2 extra ranks folding their state into a
/// partner first and receiving the result last. P = 1 sends nothing.
void exchange_pivot(mpi::Comm& col, PivotCandidate& c) {
  const int n = col.size();
  const int me = col.rank();
  const int p2 = static_cast<int>(std::bit_floor(static_cast<unsigned>(n)));
  if (me >= p2) {
    col.send_bytes(me - p2, kTagPivot, c.pack());
    c.merge(col.recv_any(me - p2, kTagPivot));
    return;
  }
  if (me + p2 < n) c.merge(col.recv_any(me + p2, kTagPivot));
  for (int mask = 1; mask < p2; mask <<= 1) {
    col.send_bytes(me ^ mask, kTagPivot, c.pack());
    c.merge(col.recv_any(me ^ mask, kTagPivot));
  }
  if (me + p2 < n) col.send_bytes(me + p2, kTagPivot, c.pack());
}

/// Factor the w-wide panel starting at global column j0. Collective over
/// the owning process column's col communicator: one pivot exchange per
/// column, after which every rank knows the pivot row and the owners of
/// rows j and piv[jj] write the swapped panel rows locally. Each column's
/// elimination pass (blas::panel_column) also finds the next column's
/// local candidate, so only the panel's first column is searched apart.
void factor_panel(mpi::Grid& grid, DistMatrix& a, std::int64_t j0, std::int64_t w,
                  std::vector<std::int64_t>& piv, std::vector<double>& pivvals) {
  const BlockCyclicDim& rows = a.rows();
  const int pr = grid.prow();
  const std::int64_t lc_panel = a.cols().local(j0);
  const std::size_t row_bytes = static_cast<std::size_t>(w) * sizeof(double);
  // Every panel row lives on one process row: the panel's row block.
  const bool own_j = pr == rows.owner(j0);

  // Local pivot search for column j0: largest |A(i, j0)| over global rows
  // i >= j0, the first maximum winning and a NaN never.
  PivotCandidate c;
  std::int64_t best_li = -1;
  for (std::int64_t li = rows.local_lower_bound(pr, j0); li < a.lrows(); ++li) {
    const double v = std::abs(a.at(li, lc_panel));
    if (v > c.best.value) {
      c.best = {v, rows.global(pr, li)};
      best_li = li;
    }
  }
  for (std::int64_t jj = 0; jj < w; ++jj) {
    const std::int64_t j = j0 + jj;

    c.row.assign(static_cast<std::size_t>(w), 0.0);
    if (best_li >= 0) std::memcpy(c.row.data(), &a.at(best_li, lc_panel), row_bytes);
    c.row_j.clear();
    if (own_j) {
      const double* row_j = &a.at(rows.local(j), lc_panel);
      c.row_j.assign(row_j, row_j + w);
    }
    exchange_pivot(grid.col(), c);
    // No candidate (every entry NaN) is as fatal as a zero one. Every rank
    // of the column holds the same winner, so all of them throw here,
    // before any touches a row.
    if (c.best.index == kNoCandidate.index) {
      throw std::runtime_error("lu_factorize: every pivot candidate is NaN at column " +
                               std::to_string(j));
    }
    if (!(c.best.value > 0.0)) {
      throw std::runtime_error("lu_factorize: zero pivot at column " + std::to_string(j));
    }
    const std::int64_t r = c.best.index;
    piv[static_cast<std::size_t>(jj)] = r;

    // Swap rows j <-> r within the panel columns: c.row is row r, c.row_j
    // row j, both as they were before the swap.
    if (r != j) {
      if (own_j) std::memcpy(&a.at(rows.local(j), lc_panel), c.row.data(), row_bytes);
      if (pr == rows.owner(r)) {
        std::memcpy(&a.at(rows.local(r), lc_panel), c.row_j.data(), row_bytes);
      }
    }
    const double* rowj = c.row.data() + jj;  // the pivot row from column j on
    const double pivot = rowj[0];
    pivvals[static_cast<std::size_t>(jj)] = pivot;

    // Scale the multipliers, apply the rank-1 update to the rest of the
    // panel and take the next column's local candidate from the same pass.
    const std::int64_t li1 = rows.local_lower_bound(pr, j + 1);
    const std::int64_t next =
        li1 < a.lrows()
            ? blas::panel_column(a.lrows() - li1, w - jj, a.row_ptr(li1) + lc_panel + jj, a.ld(),
                                 rowj, pivot)
            : -1;
    c.best = kNoCandidate;
    best_li = -1;
    if (next >= 0) {
      best_li = li1 + next;
      c.best = {std::abs(a.at(best_li, lc_panel + jj + 1)), rows.global(pr, best_li)};
    }
  }
}

}  // namespace

void generate(DistMatrix& a, std::uint64_t seed) {
  for (std::int64_t li = 0; li < a.lrows(); ++li) {
    const auto gi = static_cast<std::uint64_t>(a.rows().global(a.prow(), li));
    double* row = a.row_ptr(li);
    for (std::int64_t lj = 0; lj < a.lcols(); ++lj) {
      const auto gj = static_cast<std::uint64_t>(a.cols().global(a.pcol(), lj));
      row[lj] = util::element_value(seed, gi, gj);
    }
  }
}

void apply_row_interchanges(mpi::Comm& col, DistMatrix& a, std::int64_t j0,
                            std::span<const std::int64_t> piv, std::int64_t skip_lc0,
                            std::int64_t skip_lc1) {
  const auto left = static_cast<std::size_t>(skip_lc0);
  const auto right = static_cast<std::size_t>(a.lcols() - skip_lc1);
  const std::size_t row_bytes = (left + right) * sizeof(double);
  if (row_bytes == 0) return;

  // Compose the swaps into one permutation: afterwards global row dst[i]
  // holds the row that started at src[i]. At most 2w rows take part.
  std::vector<std::int64_t> dst;
  std::vector<std::int64_t> src;
  const auto slot = [&](std::int64_t g) {
    const auto it = std::find(dst.begin(), dst.end(), g);
    if (it != dst.end()) return static_cast<std::size_t>(it - dst.begin());
    dst.push_back(g);
    src.push_back(g);
    return dst.size() - 1;
  };
  for (std::size_t jj = 0; jj < piv.size(); ++jj) {
    const std::size_t s = slot(j0 + static_cast<std::int64_t>(jj));
    const std::size_t t = slot(piv[jj]);
    std::swap(src[s], src[t]);
  }

  // Every rank walks the moves in the same order, so out[q] (the rows this
  // rank sends to process row q; q == me: its local moves) and into[q]
  // (where the rows from q land) line up without negotiation. Every row is
  // read before any is written, since the moves form cycles.
  const BlockCyclicDim& rows = a.rows();
  const auto me = static_cast<std::size_t>(col.rank());
  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(col.size()));
  std::vector<std::vector<std::int64_t>> into(out.size());
  for (std::size_t i = 0; i < dst.size(); ++i) {
    if (src[i] == dst[i]) continue;
    const auto from = static_cast<std::size_t>(rows.owner(src[i]));
    const auto to = static_cast<std::size_t>(rows.owner(dst[i]));
    if (from == me) {
      std::vector<std::byte>& buf = out[to];
      buf.resize(buf.size() + row_bytes);
      std::byte* p = buf.data() + buf.size() - row_bytes;
      const double* row = a.row_ptr(rows.local(src[i]));
      std::memcpy(p, row, left * sizeof(double));
      std::memcpy(p + left * sizeof(double), row + skip_lc1, right * sizeof(double));
    }
    if (to == me) into[from].push_back(dst[i]);
  }
  // One message per process-row pair with rows to move; sends never block
  // in this runtime.
  for (std::size_t q = 0; q < out.size(); ++q) {
    if (q != me && !out[q].empty()) {
      col.send_bytes(static_cast<int>(q), kTagInterchange, std::move(out[q]));
    }
  }
  for (std::size_t q = 0; q < into.size(); ++q) {
    if (into[q].empty()) continue;
    const std::vector<std::byte> buf =
        q == me ? std::move(out[q])
                : col.recv_take(static_cast<int>(q), kTagInterchange, into[q].size() * row_bytes);
    for (std::size_t i = 0; i < into[q].size(); ++i) {
      const std::byte* p = buf.data() + i * row_bytes;
      double* row = a.row_ptr(rows.local(into[q][i]));
      std::memcpy(row, p, left * sizeof(double));
      std::memcpy(row + skip_lc1, p + left * sizeof(double), right * sizeof(double));
    }
  }
}

void lu_factorize(mpi::Grid& grid, DistMatrix& a, std::int64_t n, std::int64_t start_panel,
                  const PanelHook& hook, std::vector<double>* pivot_values) {
  const std::int64_t nb = a.rows().nb();
  if (a.cols().nb() != nb) throw std::invalid_argument("lu_factorize: row/col nb must match");
  if (a.cols().n() < n + 1) {
    throw std::invalid_argument("lu_factorize: matrix must be augmented (>= n+1 columns)");
  }
  const std::int64_t nblk = ceil_div(n, nb);
  const int pr = grid.prow();
  const int pc = grid.pcol();

  for (std::int64_t k = start_panel; k < nblk; ++k) {
    const std::int64_t j0 = k * nb;
    const std::int64_t w = std::min(nb, n - j0);
    const int pcolk = static_cast<int>(k % grid.Q());
    const int prowk = static_cast<int>(k % grid.P());

    SKT_SPAN("hpl.iteration");

    // (a) Panel factorization within the owning process column.
    std::vector<std::int64_t> piv(static_cast<std::size_t>(w));
    std::vector<double> pivvals(static_cast<std::size_t>(w));
    {
      SKT_SPAN("hpl.panel");
      if (pc == pcolk) factor_panel(grid, a, j0, w, piv, pivvals);
    }

    // (b) Broadcast the factored panel strip along process rows, the pivot
    // list (and, when requested, the pivot values) appended to it. Every
    // rank in a process row shares the same local row structure, so the
    // buffer size agrees without negotiation. The pivots travel as doubles,
    // as HPL's DPIV does: row indices are exact far beyond any n here.
    const std::int64_t li0 = a.rows().local_lower_bound(pr, j0);
    const std::int64_t strip_rows = a.lrows() - li0;
    const auto strip_len = static_cast<std::size_t>(strip_rows * w);
    const auto uw = static_cast<std::size_t>(w);
    std::vector<double> strip(strip_len + uw * (pivot_values != nullptr ? 2 : 1));
    double* const dpiv = strip.data() + strip_len;  // pivots, then pivot values
    {
      SKT_SPAN("hpl.bcast_panel");
      if (pc == pcolk) {
        const std::int64_t lcp = a.cols().local(j0);
        for (std::int64_t i = 0; i < strip_rows; ++i) {
          std::memcpy(&strip[static_cast<std::size_t>(i * w)], &a.at(li0 + i, lcp),
                      static_cast<std::size_t>(w) * sizeof(double));
        }
        for (std::size_t jj = 0; jj < uw; ++jj) {
          dpiv[jj] = static_cast<double>(piv[jj]);
          if (pivot_values != nullptr) dpiv[uw + jj] = pivvals[jj];
        }
      }
      grid.row().bcast<double>(pcolk, strip);
      for (std::size_t jj = 0; jj < uw; ++jj) piv[jj] = static_cast<std::int64_t>(dpiv[jj]);
      if (pivot_values != nullptr) {
        pivot_values->resize(static_cast<std::size_t>(j0 + w));
        std::copy_n(dpiv + uw, uw, pivot_values->begin() + j0);
      }
    }

    // (c) Apply the panel's interchanges to the rest of every row — both
    // the columns left of the panel (the stored L, as HPL's laswp does;
    // ABFT's row-sum invariant depends on whole rows moving together) and
    // the trailing columns (b and any checksum columns included).
    const std::int64_t lc_left = a.cols().local_lower_bound(pc, j0);
    const std::int64_t lc1 = a.cols().local_lower_bound(pc, j0 + w);
    {
      SKT_SPAN("hpl.swap");
      apply_row_interchanges(grid.col(), a, j0, piv, lc_left, lc1);
    }

    // (d) U12 = L11^{-1} A12 on the diagonal-block process row, then
    // broadcast it down the columns.
    const std::int64_t tc = a.lcols() - lc1;
    std::vector<double> u12(static_cast<std::size_t>(w * tc));
    if (pr == prowk && tc > 0) {
      SKT_SPAN("hpl.trsm");
      const std::int64_t lr0 = a.rows().local(j0);
      for (std::int64_t i = 0; i < w; ++i) {
        std::memcpy(&u12[static_cast<std::size_t>(i * tc)], &a.at(lr0 + i, lc1),
                    static_cast<std::size_t>(tc) * sizeof(double));
      }
      // L11 sits in the first w rows of the strip (its owner's local rows
      // start exactly at global row j0).
      blas::trsm_lower_unit(w, tc, strip.data(), w, u12.data(), tc);
      for (std::int64_t i = 0; i < w; ++i) {
        std::memcpy(&a.at(lr0 + i, lc1), &u12[static_cast<std::size_t>(i * tc)],
                    static_cast<std::size_t>(tc) * sizeof(double));
      }
    }
    if (!u12.empty()) {
      SKT_SPAN("hpl.bcast_u");
      grid.col().bcast<double>(prowk, u12);
    }

    // (e) Trailing update A22 -= L21 U12.
    const std::int64_t li1 = a.rows().local_lower_bound(pr, j0 + w);
    const std::int64_t tr = a.lrows() - li1;
    if (tr > 0 && tc > 0) {
      SKT_SPAN("hpl.update");
      const double* l21 = strip.data() + static_cast<std::size_t>((li1 - li0) * w);
      blas::gemm_minus(tr, tc, w, l21, w, u12.data(), tc, &a.at(li1, lc1), a.ld());
    }

    if (hook && !hook(k + 1)) return;
  }
}

std::vector<double> back_substitute(mpi::Comm& world, mpi::Grid& grid, DistMatrix& a,
                                    std::int64_t n) {
  const BlockCyclicDim& rows = a.rows();
  const BlockCyclicDim& cols = a.cols();
  const std::int64_t nb = rows.nb();
  const int pr = grid.prow();
  const int pc = grid.pcol();
  const int qb = cols.owner(n);          // process column holding y/x (column N)
  const std::int64_t lcN = cols.local(n);  // meaningful when pc == qb
  const std::int64_t nblk = ceil_div(n, nb);

  for (std::int64_t kb = nblk - 1; kb >= 0; --kb) {
    const std::int64_t r0 = kb * nb;
    const std::int64_t w = std::min(nb, n - r0);
    const int prb = rows.owner(r0);
    const int pcb = cols.owner(r0);

    std::vector<double> xk(static_cast<std::size_t>(w));
    if (pr == prb) {
      const std::int64_t lr0 = rows.local(r0);
      if (pc == qb) {
        for (std::int64_t i = 0; i < w; ++i) xk[static_cast<std::size_t>(i)] = a.at(lr0 + i, lcN);
        if (qb != pcb) grid.row().send<double>(pcb, kTagYToDiag, xk);
      }
      if (pc == pcb) {
        if (qb != pcb) grid.row().recv<double>(qb, kTagYToDiag, xk);
        blas::trsv_upper(w, &a.at(lr0, cols.local(r0)), a.ld(), xk.data());
        if (qb != pcb) grid.row().send<double>(qb, kTagXToStore, xk);
      }
      if (pc == qb) {
        if (qb != pcb) grid.row().recv<double>(pcb, kTagXToStore, xk);
        for (std::int64_t i = 0; i < w; ++i) a.at(lr0 + i, lcN) = xk[static_cast<std::size_t>(i)];
      }
    }

    // Everyone in the diagonal block's process column needs x_kb for the
    // partial updates of the rows above.
    if (pc == pcb) grid.col().bcast<double>(prb, xk);

    const std::int64_t li_end = rows.local_lower_bound(pr, r0);
    if (pc == pcb) {
      std::vector<double> z(static_cast<std::size_t>(li_end), 0.0);
      const std::int64_t lc0 = cols.local(r0);
      for (std::int64_t li = 0; li < li_end; ++li) {
        double acc = 0.0;
        for (std::int64_t c = 0; c < w; ++c) acc += a.at(li, lc0 + c) * xk[static_cast<std::size_t>(c)];
        z[static_cast<std::size_t>(li)] = acc;
      }
      if (pcb == qb) {
        for (std::int64_t li = 0; li < li_end; ++li) a.at(li, lcN) -= z[static_cast<std::size_t>(li)];
      } else {
        grid.row().send<double>(qb, kTagPartial, z);
      }
    }
    if (pc == qb && pcb != qb) {
      std::vector<double> z(static_cast<std::size_t>(li_end));
      grid.row().recv<double>(pcb, kTagPartial, z);
      for (std::int64_t li = 0; li < li_end; ++li) a.at(li, lcN) -= z[static_cast<std::size_t>(li)];
    }
  }

  // Replicate x on every rank.
  std::vector<double> partial(static_cast<std::size_t>(n), 0.0);
  if (pc == qb) {
    for (std::int64_t li = 0; li < a.lrows(); ++li) {
      const std::int64_t gi = rows.global(pr, li);
      if (gi < n) partial[static_cast<std::size_t>(gi)] = a.at(li, lcN);
    }
  }
  std::vector<double> x(static_cast<std::size_t>(n));
  world.allreduce<double>(partial, x, mpi::Sum{});
  return x;
}

Residual verify(mpi::Comm& world, const DistMatrix& a, std::int64_t n, std::uint64_t seed,
                const std::vector<double>& x) {
  if (static_cast<std::int64_t>(x.size()) != n) {
    throw std::invalid_argument("verify: x must have n entries");
  }
  // Partial residual r = -A x and row-wise |A| sums over this rank's
  // original (regenerated) elements; one combined reduction.
  std::vector<double> partial(static_cast<std::size_t>(2 * n), 0.0);
  const std::span<double> r(partial.data(), static_cast<std::size_t>(n));
  const std::span<double> rowsum(partial.data() + n, static_cast<std::size_t>(n));
  for (std::int64_t li = 0; li < a.lrows(); ++li) {
    const std::int64_t gi = a.rows().global(a.prow(), li);
    double acc = 0.0;
    double asum = 0.0;
    for (std::int64_t lj = 0; lj < a.lcols(); ++lj) {
      const std::int64_t gj = a.cols().global(a.pcol(), lj);
      if (gj >= n) continue;
      const double val = util::element_value(seed, static_cast<std::uint64_t>(gi),
                                             static_cast<std::uint64_t>(gj));
      acc += val * x[static_cast<std::size_t>(gj)];
      asum += std::abs(val);
    }
    r[static_cast<std::size_t>(gi)] -= acc;
    rowsum[static_cast<std::size_t>(gi)] += asum;
  }
  std::vector<double> reduced(partial.size());
  world.allreduce<double>(partial, reduced, mpi::Sum{});

  Residual res;
  for (std::int64_t i = 0; i < n; ++i) {
    const double b = util::element_value(seed, static_cast<std::uint64_t>(i),
                                         static_cast<std::uint64_t>(n));
    const double ri = std::abs(reduced[static_cast<std::size_t>(i)] + b);
    res.r_inf = std::max(res.r_inf, ri);
    res.a_inf = std::max(res.a_inf, reduced[static_cast<std::size_t>(n + i)]);
    res.b_inf = std::max(res.b_inf, std::abs(b));
  }
  for (double v : x) res.x_inf = std::max(res.x_inf, std::abs(v));
  const double denom =
      DBL_EPSILON * (res.a_inf * res.x_inf + res.b_inf) * static_cast<double>(n);
  res.scaled = denom > 0 ? res.r_inf / denom : std::numeric_limits<double>::infinity();
  res.pass = res.scaled < 16.0;
  return res;
}

}  // namespace skt::hpl
