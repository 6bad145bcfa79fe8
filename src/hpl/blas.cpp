#include "hpl/blas.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "encoding/kernels.hpp"
#include "util/aligned.hpp"
#include "util/cpu.hpp"

#if defined(SKT_SIMD_ENABLED) && defined(__x86_64__)
#define SKT_BLAS_HAVE_AVX2 1
#include <immintrin.h>
#else
#define SKT_BLAS_HAVE_AVX2 0
#endif

namespace skt::hpl::blas {

namespace {

// ------------------------------------------------------- scalar tier ---
// Row-axpy loop, blocked so the B tile (kKc x kNc doubles) stays
// L1/L2-resident across the i loop. Each element of C is loaded and stored
// once per k.
constexpr std::int64_t kKc = 64;
constexpr std::int64_t kNc = 128;

void gemm_minus_scalar(std::int64_t m, std::int64_t n, std::int64_t k, const double* a,
                       std::int64_t lda, const double* b, std::int64_t ldb, double* c,
                       std::int64_t ldc) {
  for (std::int64_t j0 = 0; j0 < n; j0 += kNc) {
    const std::int64_t jb = std::min(kNc, n - j0);
    for (std::int64_t k0 = 0; k0 < k; k0 += kKc) {
      const std::int64_t kb = std::min(kKc, k - k0);
      for (std::int64_t i = 0; i < m; ++i) {
        const double* ai = a + i * lda + k0;
        double* ci = c + i * ldc + j0;
        for (std::int64_t kk = 0; kk < kb; ++kk) {
          const double aik = ai[kk];
          if (aik == 0.0) continue;
          const double* bk = b + (k0 + kk) * ldb + j0;
          std::int64_t j = 0;
          for (; j + 4 <= jb; j += 4) {
            ci[j] -= aik * bk[j];
            ci[j + 1] -= aik * bk[j + 1];
            ci[j + 2] -= aik * bk[j + 2];
            ci[j + 3] -= aik * bk[j + 3];
          }
          for (; j < jb; ++j) ci[j] -= aik * bk[j];
        }
      }
    }
  }
}

std::int64_t panel_column_scalar(std::int64_t rows, std::int64_t len, double* a,
                                 std::int64_t lda, const double* u, double pivot) {
  std::int64_t best = -1;
  double best_v = -1.0;
  for (std::int64_t i = 0; i < rows; ++i) {
    double* r = a + i * lda;
    r[0] /= pivot;
    const double l = r[0];
    for (std::int64_t c = 1; c < len; ++c) r[c] -= l * u[c];
    if (len > 1 && std::abs(r[1]) > best_v) {
      best_v = std::abs(r[1]);
      best = i;
    }
  }
  return best;
}

// Forward substitution row by row: row i of X depends on rows < i.
void trsm_lower_unit_scalar(std::int64_t m, std::int64_t n, const double* l, std::int64_t ldl,
                            double* b, std::int64_t ldb) {
  for (std::int64_t i = 1; i < m; ++i) {
    double* bi = b + i * ldb;
    for (std::int64_t kk = 0; kk < i; ++kk) {
      const double lik = l[i * ldl + kk];
      if (lik == 0.0) continue;
      const double* bk = b + kk * ldb;
      for (std::int64_t j = 0; j < n; ++j) bi[j] -= lik * bk[j];
    }
  }
}

// --------------------------------------------------------- AVX2 tier ---
// Every kernel here starts on a 64-byte boundary, like the AVX2 encoding
// kernels, so code added or deleted elsewhere in a binary does not move
// its loops across fetch blocks and shift its timing. scripts/check.sh
// checks the pins in a built binary.
#if SKT_BLAS_HAVE_AVX2

// Micro-tile: kMr rows x kNr columns of C live in 2*kMr ymm accumulators
// (12 of the 16), leaving room for the two B vectors and the A broadcast.
constexpr std::int64_t kMr = 6;
constexpr std::int64_t kNr = 8;
// k-block: one packed strip (kKb x kNr doubles, 16 KiB) stays in L1 while
// a tile runs, and the kMr A rows of a block (12 KiB) stay there across
// the strips of a row block.
constexpr std::int64_t kKb = 256;

// Packs rows [0, kb) of B (columns [0, n)) into ceil(n / kNr) strips:
// strip s holds kb rows of kNr doubles, row kk at s*kb*kNr + kk*kNr, and
// the columns past n are zero.
void pack_b(std::int64_t kb, std::int64_t n, const double* b, std::int64_t ldb,
            double* packed) {
  for (std::int64_t j0 = 0; j0 < n; j0 += kNr) {
    const std::int64_t cols = std::min(kNr, n - j0);
    for (std::int64_t kk = 0; kk < kb; ++kk) {
      const double* src = b + kk * ldb + j0;
      double* dst = packed + kk * kNr;
      std::int64_t j = 0;
      for (; j < cols; ++j) dst[j] = src[j];
      for (; j < kNr; ++j) dst[j] = 0.0;
    }
    packed += kb * kNr;
  }
}

// All-ones in lanes [0, lanes), zero above.
__attribute__((target("avx2,fma"))) inline __m256d lane_mask(std::int64_t lanes) {
  return _mm256_castsi256_pd(
      _mm256_cmpgt_epi64(_mm256_set1_epi64x(lanes), _mm256_setr_epi64x(0, 1, 2, 3)));
}

// Load / store the first `lanes` doubles (clamped to [0, 4]) of a vector
// at p: lanes past that read as zero and are never written, so a fringe
// tile touches nothing outside C's window.
__attribute__((target("avx2,fma"))) inline __m256d load_part(const double* p,
                                                             std::int64_t lanes) {
  if (lanes >= 4) return _mm256_loadu_pd(p);
  if (lanes <= 0) return _mm256_setzero_pd();
  return _mm256_maskload_pd(p, _mm256_castpd_si256(lane_mask(lanes)));
}

__attribute__((target("avx2,fma"))) inline void store_part(double* p, __m256d v,
                                                           std::int64_t lanes) {
  if (lanes >= 4) {
    _mm256_storeu_pd(p, v);
  } else if (lanes > 0) {
    _mm256_maskstore_pd(p, _mm256_castpd_si256(lane_mask(lanes)), v);
  }
}

// C[Mr x cols] -= A[Mr x kb] * strip, cols <= kNr. Every element of C is
// the fused chain c = fma(-a_ik, b_kj, c) over k in ascending order, so the
// result does not depend on where the element falls in the tiling.
template <int Mr>
__attribute__((target("avx2,fma"), aligned(64))) void micro_tile(
    std::int64_t kb, const double* a, std::int64_t lda, const double* strip, double* c,
    std::int64_t ldc, std::int64_t cols) {
  __m256d lo[Mr];
  __m256d hi[Mr];
#pragma GCC unroll 6
  for (int r = 0; r < Mr; ++r) {
    lo[r] = load_part(c + r * ldc, cols);
    hi[r] = cols > 4 ? load_part(c + r * ldc + 4, cols - 4) : _mm256_setzero_pd();
  }
  for (std::int64_t kk = 0; kk < kb; ++kk) {
    const __m256d b0 = _mm256_load_pd(strip + kk * kNr);
    const __m256d b1 = _mm256_load_pd(strip + kk * kNr + 4);
#pragma GCC unroll 6
    for (int r = 0; r < Mr; ++r) {
      const __m256d ar = _mm256_broadcast_sd(a + r * lda + kk);
      lo[r] = _mm256_fnmadd_pd(ar, b0, lo[r]);
      hi[r] = _mm256_fnmadd_pd(ar, b1, hi[r]);
    }
  }
#pragma GCC unroll 6
  for (int r = 0; r < Mr; ++r) {
    store_part(c + r * ldc, lo[r], cols);
    if (cols > 4) store_part(c + r * ldc + 4, hi[r], cols - 4);
  }
}

// One block of Mr rows of C against every packed strip. noclone keeps
// GCC from emitting an unpinned IPA-SRA copy (row_block<1> got one).
template <int Mr>
__attribute__((target("avx2,fma"), aligned(64), noclone)) void row_block(
    std::int64_t n, std::int64_t kb, const double* a, std::int64_t lda, const double* packed,
    double* c, std::int64_t ldc) {
  for (std::int64_t j0 = 0; j0 < n; j0 += kNr) {
    micro_tile<Mr>(kb, a, lda, packed, c + j0, ldc, std::min(kNr, n - j0));
    packed += kb * kNr;
  }
}

void gemm_minus_avx2(std::int64_t m, std::int64_t n, std::int64_t k, const double* a,
                     std::int64_t lda, const double* b, std::int64_t ldb, double* c,
                     std::int64_t ldc) {
  // Per-thread packing buffer: each rank thread keeps one, grown to the
  // largest k-block it has seen, so a call allocates only when it is the
  // largest so far.
  thread_local util::aligned_vector<double> packed;
  const std::int64_t strips = (n + kNr - 1) / kNr;
  const auto need = static_cast<std::size_t>(strips * kNr * std::min(kKb, k));
  if (packed.size() < need) packed.resize(need);

  for (std::int64_t k0 = 0; k0 < k; k0 += kKb) {
    const std::int64_t kb = std::min(kKb, k - k0);
    pack_b(kb, n, b + k0 * ldb, ldb, packed.data());
    std::int64_t i0 = 0;
    for (; i0 + kMr <= m; i0 += kMr) {
      row_block<kMr>(n, kb, a + i0 * lda + k0, lda, packed.data(), c + i0 * ldc, ldc);
    }
    if (i0 == m) continue;
    const double* ai = a + i0 * lda + k0;
    double* ci = c + i0 * ldc;
    switch (m - i0) {
      case 5: row_block<5>(n, kb, ai, lda, packed.data(), ci, ldc); break;
      case 4: row_block<4>(n, kb, ai, lda, packed.data(), ci, ldc); break;
      case 3: row_block<3>(n, kb, ai, lda, packed.data(), ci, ldc); break;
      case 2: row_block<2>(n, kb, ai, lda, packed.data(), ci, ldc); break;
      default: row_block<1>(n, kb, ai, lda, packed.data(), ci, ldc); break;
    }
  }
}

// panel_column on FMA: the update of each row runs 4 doubles wide, the
// last 1-3 through masked loads and stores, and the next column's
// candidate |a[1]| is read from the first vector's low lane.
__attribute__((target("avx2,fma"), aligned(64))) std::int64_t panel_column_avx2(
    std::int64_t rows, std::int64_t len, double* a, std::int64_t lda, const double* u,
    double pivot) {
  std::int64_t best = -1;
  double best_v = -1.0;
  const std::int64_t lanes0 = std::min<std::int64_t>(4, len - 1);
  for (std::int64_t i = 0; i < rows; ++i) {
    double* r = a + i * lda;
    r[0] /= pivot;
    if (lanes0 <= 0) continue;
    const __m256d l = _mm256_set1_pd(r[0]);
    const __m256d head = _mm256_fnmadd_pd(l, load_part(u + 1, lanes0), load_part(r + 1, lanes0));
    store_part(r + 1, head, lanes0);
    std::int64_t c = 5;
    for (; c + 4 <= len; c += 4) {
      _mm256_storeu_pd(r + c,
                       _mm256_fnmadd_pd(l, _mm256_loadu_pd(u + c), _mm256_loadu_pd(r + c)));
    }
    if (c < len) {
      store_part(r + c, _mm256_fnmadd_pd(l, load_part(u + c, len - c), load_part(r + c, len - c)),
                 len - c);
    }
    const double v = std::abs(_mm256_cvtsd_f64(head));
    if (v > best_v) {
      best_v = v;
      best = i;
    }
  }
  return best;
}

// trsm_lower_unit on FMA: row i of B is updated 16 columns at a time,
// held in four ymm accumulators across its whole k loop, so it is loaded
// and stored once per block instead of once per k; the last 0-15 columns
// go 4 at a time, the final 1-3 through masked loads and stores.
__attribute__((target("avx2,fma"), aligned(64))) void trsm_lower_unit_avx2(
    std::int64_t m, std::int64_t n, const double* l, std::int64_t ldl, double* b,
    std::int64_t ldb) {
  for (std::int64_t i = 1; i < m; ++i) {
    const double* li = l + i * ldl;
    double* bi = b + i * ldb;
    std::int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
      __m256d x0 = _mm256_loadu_pd(bi + j);
      __m256d x1 = _mm256_loadu_pd(bi + j + 4);
      __m256d x2 = _mm256_loadu_pd(bi + j + 8);
      __m256d x3 = _mm256_loadu_pd(bi + j + 12);
      for (std::int64_t kk = 0; kk < i; ++kk) {
        if (li[kk] == 0.0) continue;
        const __m256d lik = _mm256_set1_pd(li[kk]);
        const double* bk = b + kk * ldb + j;
        x0 = _mm256_fnmadd_pd(lik, _mm256_loadu_pd(bk), x0);
        x1 = _mm256_fnmadd_pd(lik, _mm256_loadu_pd(bk + 4), x1);
        x2 = _mm256_fnmadd_pd(lik, _mm256_loadu_pd(bk + 8), x2);
        x3 = _mm256_fnmadd_pd(lik, _mm256_loadu_pd(bk + 12), x3);
      }
      _mm256_storeu_pd(bi + j, x0);
      _mm256_storeu_pd(bi + j + 4, x1);
      _mm256_storeu_pd(bi + j + 8, x2);
      _mm256_storeu_pd(bi + j + 12, x3);
    }
    for (; j < n; j += 4) {
      const std::int64_t lanes = n - j;
      __m256d x = load_part(bi + j, lanes);
      for (std::int64_t kk = 0; kk < i; ++kk) {
        if (li[kk] == 0.0) continue;
        x = _mm256_fnmadd_pd(_mm256_set1_pd(li[kk]), load_part(b + kk * ldb + j, lanes), x);
      }
      store_part(bi + j, x, lanes);
    }
  }
}

// The tier that the three kernels share with the encoding kernels.
bool fma_tier() {
  return enc::kernels::active_tier() == enc::kernels::Tier::kAvx2 && util::cpu_has_fma();
}

#endif  // SKT_BLAS_HAVE_AVX2

}  // namespace

// The entry points are pinned like the AVX2 kernels above.
__attribute__((aligned(64))) void gemm_minus(std::int64_t m, std::int64_t n, std::int64_t k,
                                             const double* a, std::int64_t lda, const double* b,
                                             std::int64_t ldb, double* c, std::int64_t ldc) {
  if (m <= 0 || n <= 0 || k <= 0) return;
#if SKT_BLAS_HAVE_AVX2
  if (fma_tier()) {
    gemm_minus_avx2(m, n, k, a, lda, b, ldb, c, ldc);
    return;
  }
#endif
  gemm_minus_scalar(m, n, k, a, lda, b, ldb, c, ldc);
}

__attribute__((aligned(64))) std::int64_t panel_column(std::int64_t rows, std::int64_t len,
                                                       double* a, std::int64_t lda,
                                                       const double* u, double pivot) {
#if SKT_BLAS_HAVE_AVX2
  if (fma_tier()) return panel_column_avx2(rows, len, a, lda, u, pivot);
#endif
  return panel_column_scalar(rows, len, a, lda, u, pivot);
}

__attribute__((aligned(64))) void trsm_lower_unit(std::int64_t m, std::int64_t n,
                                                  const double* l, std::int64_t ldl, double* b,
                                                  std::int64_t ldb) {
  if (m <= 1 || n <= 0) return;
#if SKT_BLAS_HAVE_AVX2
  if (fma_tier()) {
    trsm_lower_unit_avx2(m, n, l, ldl, b, ldb);
    return;
  }
#endif
  trsm_lower_unit_scalar(m, n, l, ldl, b, ldb);
}

void trsv_upper(std::int64_t m, const double* u, std::int64_t ldu, double* y) {
  for (std::int64_t i = m - 1; i >= 0; --i) {
    double acc = y[i];
    const double* ui = u + i * ldu;
    for (std::int64_t j = i + 1; j < m; ++j) acc -= ui[j] * y[j];
    y[i] = acc / ui[i];
  }
}

}  // namespace skt::hpl::blas
