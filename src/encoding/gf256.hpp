// GF(2^8) arithmetic with the AES polynomial x^8+x^4+x^3+x+1 (0x11b).
// Backing for the parity rows beyond the first that lift the group code
// (group_codec.hpp) from single-erasure (RAID-5) to multi-erasure
// tolerance — the paper's "more complex encoding methods such as RAID-6
// and Reed-Solomon".
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace skt::enc::gf256 {

namespace detail {
/// log/exp tables (generator 3); exp is doubled so mul skips the mod-255
/// reduction. Shared with the kernel layer, which builds its PSHUFB
/// nibble-product tables from them.
struct Tables {
  std::array<std::uint8_t, 256> log{};
  std::array<std::uint8_t, 512> exp{};
};
const Tables& tables();
}  // namespace detail

/// Multiplication in GF(2^8) via log/exp tables (generator 3).
[[nodiscard]] std::uint8_t mul(std::uint8_t a, std::uint8_t b);

/// Multiplicative inverse; a must be non-zero.
[[nodiscard]] std::uint8_t inv(std::uint8_t a);

/// a / b; b must be non-zero.
[[nodiscard]] std::uint8_t div(std::uint8_t a, std::uint8_t b);

/// base^e (e >= 0).
[[nodiscard]] std::uint8_t pow(std::uint8_t base, unsigned e);

/// out[i] ^= coeff * in[i] for all i — the inner loop of a weighted parity row.
void mul_acc(std::span<std::uint8_t> out, std::span<const std::uint8_t> in, std::uint8_t coeff);

/// Solve the k-by-k linear system M x = y in GF(2^8) by Gauss-Jordan
/// elimination, in place (M row major; y becomes x). Returns false if M
/// is singular. The group code's rebuild solves each lost block's
/// survivor weights with it.
bool solve(std::span<std::uint8_t> matrix, std::span<std::uint8_t> rhs, int k);

}  // namespace skt::enc::gf256
