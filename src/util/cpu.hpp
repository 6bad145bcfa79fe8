// Runtime CPU feature detection for the SIMD kernel dispatch
// (encoding/kernels.hpp, and the HPL GEMM that follows its tier). Queries are answered once via cpuid and cached;
// the SKT_KERNELS environment variable ("scalar" / "avx2") can force a
// tier downward for A/B measurement without rebuilding.
#pragma once

#include <string>

namespace skt::util {

/// True when the CPU (and OS-saved state) supports AVX2.
[[nodiscard]] bool cpu_has_avx2();

/// True when the CPU (and OS-saved state) supports FMA3, which the HPL
/// GEMM's AVX2 tier needs on top of AVX2 (hpl/blas.hpp).
[[nodiscard]] bool cpu_has_fma();

/// True when the CPU supports SSSE3 (PSHUFB, the table-lookup workhorse).
[[nodiscard]] bool cpu_has_ssse3();

/// Value of the SKT_KERNELS override, lower-cased ("" when unset).
[[nodiscard]] std::string kernel_override();

/// Human-readable summary for logs/bench reports, e.g. "avx2+fma+ssse3".
[[nodiscard]] std::string cpu_simd_summary();

}  // namespace skt::util
