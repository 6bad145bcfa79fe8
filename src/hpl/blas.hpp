// Minimal dense kernels (row-major, explicit leading dimension) backing
// the HPL substrate. Single-threaded per rank — parallelism comes from the
// process grid, exactly as in HPL itself.
//
// gemm_minus, panel_column and trsm_lower_unit run on the encoding kernel
// tier (enc::kernels::active_tier()): their AVX2+FMA paths run when the
// tier is kAvx2 and the CPU reports FMA, their scalar loops otherwise. The
// AVX2 paths fuse each multiply-subtract (x = fma(-l, y, x)), so the tiers
// agree within rounding, not bit for bit; within a tier every result is
// deterministic.
#pragma once

#include <cstddef>
#include <cstdint>

namespace skt::hpl::blas {

/// C[m x n] -= A[m x k] * B[k x n]  (the trailing-matrix update).
/// Writes nothing outside C's m x n window, for any m, n, k >= 0 and any
/// leading dimensions. On the AVX2 tier, B is packed per k-block into
/// zero-padded 8-column strips in a per-thread buffer and C is updated in
/// 6x8 register tiles, each element as the fused chain
/// c = fma(-a_ik, b_kj, c) over ascending k; otherwise a blocked row-axpy
/// loop runs. This is the kernel whose throughput defines the "theoretical
/// peak" of a simulated node (calibrate_peak_gflops).
void gemm_minus(std::int64_t m, std::int64_t n, std::int64_t k, const double* a,
                std::int64_t lda, const double* b, std::int64_t ldb, double* c,
                std::int64_t ldc);

/// One panel column's elimination step, fused with the next column's
/// pivot search. Row i (i in [0, rows)) is a[i * lda ..], viewed from the
/// panel column being eliminated on; u is the pivot row from that column
/// on, and len the panel width left (len >= 1). Per row:
/// a[0] /= pivot, then a[c] -= a[0] * u[c] for c in [1, len).
/// Returns the row whose updated |a[1]| is largest: strict > in ascending
/// row order, so the first maximum wins and a NaN never does; -1 when
/// there is no candidate (rows == 0, len == 1, or every candidate NaN).
/// Reads and writes nothing outside each row's [0, len) window.
std::int64_t panel_column(std::int64_t rows, std::int64_t len, double* a, std::int64_t lda,
                          const double* u, double pivot);

/// Solve L X = B in place where L[m x m] is UNIT lower triangular;
/// B is m x n (the U12 panel update). Reads only L's strictly lower
/// triangle and skips its zeros. On the AVX2 tier each element of B is
/// the fused chain b_ij = fma(-l_ik, b_kj, b_ij) over ascending k.
void trsm_lower_unit(std::int64_t m, std::int64_t n, const double* l, std::int64_t ldl,
                     double* b, std::int64_t ldb);

/// Solve U x = y in place where U[m x m] is upper triangular (non-unit),
/// y is a length-m vector (diagonal-block solve in back substitution).
void trsv_upper(std::int64_t m, const double* u, std::int64_t ldu, double* y);

}  // namespace skt::hpl::blas
