// Minimal dense kernels (row-major, explicit leading dimension) backing
// the HPL substrate. Single-threaded per rank — parallelism comes from the
// process grid, exactly as in HPL itself.
#pragma once

#include <cstddef>
#include <cstdint>

namespace skt::hpl::blas {

/// C[m x n] -= A[m x k] * B[k x n]  (the trailing-matrix update).
/// Writes nothing outside C's m x n window, for any m, n, k >= 0 and any
/// leading dimensions. Runs on the encoding kernel tier
/// (enc::kernels::active_tier()): on kAvx2 with FMA, B is packed per
/// k-block into zero-padded 8-column strips in a per-thread buffer and C is
/// updated in 6x8 register tiles, each element as the fused chain
/// c = fma(-a_ik, b_kj, c) over ascending k; otherwise a blocked row-axpy
/// loop runs. Results are deterministic within a tier but differ in the
/// last bits between tiers. This is the kernel whose throughput defines
/// the "theoretical peak" of a simulated node (calibrate_peak_gflops).
void gemm_minus(std::int64_t m, std::int64_t n, std::int64_t k, const double* a,
                std::int64_t lda, const double* b, std::int64_t ldb, double* c,
                std::int64_t ldc);

/// Solve L X = B in place where L[m x m] is UNIT lower triangular;
/// B is m x n (the U12 panel update).
void trsm_lower_unit(std::int64_t m, std::int64_t n, const double* l, std::int64_t ldl,
                     double* b, std::int64_t ldb);

/// Solve U x = y in place where U[m x m] is upper triangular (non-unit),
/// y is a length-m vector (diagonal-block solve in back substitution).
void trsv_upper(std::int64_t m, const double* u, std::int64_t ldu, double* y);

}  // namespace skt::hpl::blas
