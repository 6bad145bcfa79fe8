// Vectorized byte-level kernels with one-time runtime CPU dispatch.
//
// Every hot byte loop in the encoding substrate funnels through here:
// XOR accumulate (the codec's "+"), SUM accumulate/subtract over double
// lanes, XOR delta (diff staging), and the GF(2^8) multiply-accumulate
// behind the group code's weighted parity rows. Two tiers exist:
//
//   kScalar — memcpy-chunked uint64 loops and the log/exp-table GF loop.
//             Alignment-agnostic, UBSan-clean, always available.
//   kAvx2   — 32-byte-vector loops; GF(2^8) uses the PSHUFB split-nibble
//             technique (two 16-entry nibble product tables per
//             coefficient, product = lo[b&15] ^ hi[b>>4]) so one ymm op
//             multiplies 32 field elements.
//
// The tier is selected ONCE at first use: compiled-in availability
// (-DSKT_SIMD=OFF strips the AVX2 tier) AND cpuid (util::cpu_has_avx2)
// AND the SKT_KERNELS env override ("scalar" forces the fallback).
// force_tier() lets tests and benches pin a tier to prove byte-identical
// outputs and measure the speedup.
//
// All entry points accept ANY size and ANY alignment — tails and
// misaligned spans are handled internally — so callers need no padding
// contract beyond matching span lengths.
//
// The same tier also selects the HPL kernels (hpl/blas.hpp): the
// trailing-update GEMM (gemm_minus), the panel's per-column scale, rank-1
// update and next pivot search (panel_column) and the U12 solve
// (trsm_lower_unit). Their AVX2+FMA paths run when the tier is kAvx2 and
// the CPU reports FMA (util::cpu_has_fma), their scalar loops otherwise,
// so -DSKT_SIMD=OFF, SKT_KERNELS=scalar and force_tier() pin them too.
// Unlike the kernels here, their two tiers round differently (fused vs
// separate multiply-add), so they agree within tolerance, not bit for
// bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace skt::enc::kernels {

enum class Tier {
  kScalar = 0,
  kAvx2 = 1,
};

[[nodiscard]] constexpr std::string_view to_string(Tier t) {
  return t == Tier::kAvx2 ? "avx2" : "scalar";
}

/// True when the AVX2 tier was compiled in (SKT_SIMD=ON on an x86 build).
[[nodiscard]] bool simd_compiled();

/// The tier the kernels below currently run on.
[[nodiscard]] Tier active_tier();

/// Pin the dispatch to `t` (clamped to what is compiled in and supported);
/// returns the previously active tier. Test/bench hook — call from a
/// single thread before spawning workers.
Tier force_tier(Tier t);

/// acc[i] ^= in[i]. Sizes must match.
void xor_acc(std::span<std::byte> acc, std::span<const std::byte> in);

/// out[i] = a[i] ^ b[i]. Sizes must match; `out` may alias `a` or `b`.
void xor_delta(std::span<std::byte> out, std::span<const std::byte> a,
               std::span<const std::byte> b);

/// acc[i] += in[i] over double lanes.
void sum_acc(std::span<double> acc, std::span<const double> in);

/// acc[i] -= in[i] over double lanes.
void sum_sub(std::span<double> acc, std::span<const double> in);

/// out[i] ^= coeff * in[i] in GF(2^8) (AES polynomial 0x11b). coeff==0 is
/// a no-op, coeff==1 degrades to xor_acc.
void gf256_mul_acc(std::span<std::uint8_t> out, std::span<const std::uint8_t> in,
                   std::uint8_t coeff);

}  // namespace skt::enc::kernels
