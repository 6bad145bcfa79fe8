// Error-correcting codes for in-memory checkpoints (Section 2.1-2.2).
//
// The paper's encoder is a RAID-5-style single-erasure code whose "+" is
// either bitwise XOR over 64-bit lanes (the default: exact and usually
// faster) or numeric addition over doubles. Both are exposed behind one
// local Codec interface; the distributed wrapper lives in group_codec.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace skt::enc {

enum class CodecKind {
  kXor,  ///< bitwise exclusive-or, MPI_BXOR over MPI_LONG_LONG
  kSum,  ///< numeric addition, MPI_SUM over MPI_DOUBLE
};

[[nodiscard]] constexpr std::string_view to_string(CodecKind kind) {
  return kind == CodecKind::kXor ? "xor" : "sum";
}

/// Alignment contract: every buffer handed to these functions must be a
/// multiple of kLane bytes (the stripe layout pads to this).
inline constexpr std::size_t kLane = 8;

/// acc := acc (+) in, element-wise. Sizes must match and be lane-aligned.
void accumulate(CodecKind kind, std::span<std::byte> acc, std::span<const std::byte> in);

/// Exact equality for XOR; tolerance-based for SUM (|a-b| <= tol * |a|+1).
[[nodiscard]] bool equals(CodecKind kind, std::span<const std::byte> a,
                          std::span<const std::byte> b, double tolerance = 1e-9);

}  // namespace skt::enc
