#include "encoding/codec.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "encoding/kernels.hpp"

namespace skt::enc {
namespace {

void check_pair(std::span<const std::byte> a, std::span<const std::byte> b) {
  if (a.size() != b.size()) throw std::invalid_argument("codec: size mismatch");
  if (a.size() % kLane != 0) throw std::invalid_argument("codec: buffers must be lane-aligned");
}

std::span<double> as_doubles(std::span<std::byte> b) {
  return {reinterpret_cast<double*>(b.data()), b.size() / sizeof(double)};
}
std::span<const double> as_doubles(std::span<const std::byte> b) {
  return {reinterpret_cast<const double*>(b.data()), b.size() / sizeof(double)};
}

}  // namespace

void accumulate(CodecKind kind, std::span<std::byte> acc, std::span<const std::byte> in) {
  check_pair(acc, in);
  if (kind == CodecKind::kXor) {
    kernels::xor_acc(acc, in);
  } else {
    kernels::sum_acc(as_doubles(acc), as_doubles(in));
  }
}

bool equals(CodecKind kind, std::span<const std::byte> a, std::span<const std::byte> b,
            double tolerance) {
  check_pair(a, b);
  if (kind == CodecKind::kXor) {
    return std::memcmp(a.data(), b.data(), a.size()) == 0;
  }
  const double* x = reinterpret_cast<const double*>(a.data());
  const double* y = reinterpret_cast<const double*>(b.data());
  const std::size_t n = a.size() / sizeof(double);
  for (std::size_t i = 0; i < n; ++i) {
    if (std::abs(x[i] - y[i]) > tolerance * (std::abs(x[i]) + 1.0)) return false;
  }
  return true;
}

}  // namespace skt::enc
