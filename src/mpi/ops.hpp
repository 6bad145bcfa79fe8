// Reduction operators for SimMPI collectives. All are commutative and
// associative; SUM over doubles carries the usual floating-point rounding,
// which is why the paper's encoder defaults to bitwise XOR.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#include "encoding/kernels.hpp"

namespace skt::mpi {

struct Sum {
  template <typename T>
  T operator()(T a, T b) const {
    return a + b;
  }
};

struct Max {
  template <typename T>
  T operator()(T a, T b) const {
    return std::max(a, b);
  }
};

struct Min {
  template <typename T>
  T operator()(T a, T b) const {
    return std::min(a, b);
  }
};

/// Bitwise XOR; integral types only (use std::uint64_t lanes over raw bytes).
struct BXor {
  template <typename T>
  T operator()(T a, T b) const {
    static_assert(std::is_integral_v<T>, "BXor requires an integral type");
    return static_cast<T>(a ^ b);
  }
};

/// acc[i] = op(acc[i], in[i]) over equal-length spans — the combine step of
/// reduce(). The two bulk-data cases (XOR over uint64 lanes, SUM over
/// doubles) dispatch into the runtime-selected SIMD kernels; the generic
/// fallback keeps the fixed-length inner block the compiler auto-vectorizes,
/// so either way the combine is memory-bound instead of instruction-bound.
template <typename T, typename Op>
inline void combine_inplace(std::span<T> acc, std::span<const T> in, Op op) {
  if constexpr (std::is_same_v<Op, BXor> && std::is_same_v<T, std::uint64_t>) {
    enc::kernels::xor_acc(std::as_writable_bytes(acc), std::as_bytes(in));
  } else if constexpr (std::is_same_v<Op, Sum> && std::is_same_v<T, double>) {
    enc::kernels::sum_acc(acc, in);
  } else {
    constexpr std::size_t kBlock = 32;
    T* a = acc.data();
    const T* b = in.data();
    const std::size_t n = acc.size();
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
      for (std::size_t j = 0; j < kBlock; ++j) a[i + j] = op(a[i + j], b[i + j]);
    }
    for (; i < n; ++i) a[i] = op(a[i], b[i]);
  }
}

/// (value, index) pair for pivot search — MPI_MAXLOC over |value|.
struct ValueLoc {
  double value = 0.0;
  std::int64_t index = -1;

  friend bool operator==(const ValueLoc&, const ValueLoc&) = default;
};

/// Picks the pair with the larger value; ties resolve to the smaller index
/// so every rank agrees on one pivot.
struct MaxLoc {
  ValueLoc operator()(const ValueLoc& a, const ValueLoc& b) const {
    if (a.value > b.value) return a;
    if (b.value > a.value) return b;
    return a.index <= b.index ? a : b;
  }
};

}  // namespace skt::mpi
