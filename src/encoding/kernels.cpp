#include "encoding/kernels.hpp"

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <string>

#include "encoding/gf256.hpp"
#include "util/cpu.hpp"

#if defined(SKT_SIMD_ENABLED) && defined(__x86_64__)
#define SKT_KERNELS_HAVE_AVX2 1
#include <immintrin.h>
#else
#define SKT_KERNELS_HAVE_AVX2 0
#endif

namespace skt::enc::kernels {
namespace {

// ------------------------------------------------------- scalar tier ---
// memcpy-chunked uint64 loops: a single mov per 8 bytes regardless of
// span alignment, and UBSan-clean on the odd-offset spans the dirty-run
// paths produce.

void xor_acc_scalar(std::byte* acc, const std::byte* in, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::memcpy(&a, acc + i, 8);
    std::memcpy(&b, in + i, 8);
    a ^= b;
    std::memcpy(acc + i, &a, 8);
  }
  for (; i < n; ++i) acc[i] ^= in[i];
}

void xor_delta_scalar(std::byte* out, const std::byte* a, const std::byte* b,
                      std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t x = 0;
    std::uint64_t y = 0;
    std::memcpy(&x, a + i, 8);
    std::memcpy(&y, b + i, 8);
    x ^= y;
    std::memcpy(out + i, &x, 8);
  }
  for (; i < n; ++i) out[i] = a[i] ^ b[i];
}

void sum_acc_scalar(double* acc, const double* in, std::size_t n) {
  constexpr std::size_t kBlock = 32;
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    for (std::size_t j = 0; j < kBlock; ++j) acc[i + j] += in[i + j];
  }
  for (; i < n; ++i) acc[i] += in[i];
}

void sum_sub_scalar(double* acc, const double* in, std::size_t n) {
  constexpr std::size_t kBlock = 32;
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    for (std::size_t j = 0; j < kBlock; ++j) acc[i + j] -= in[i + j];
  }
  for (; i < n; ++i) acc[i] -= in[i];
}

void gf_mul_acc_scalar(std::uint8_t* out, const std::uint8_t* in, std::size_t n,
                       std::uint8_t coeff) {
  const gf256::detail::Tables& t = gf256::detail::tables();
  const std::uint8_t lc = t.log[coeff];
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t v = in[i];
    if (v != 0) out[i] ^= t.exp[static_cast<std::size_t>(t.log[v]) + lc];
  }
}

// --------------------------------------------------------- AVX2 tier ---
// Each kernel starts on a 64-byte boundary, so code added or deleted
// elsewhere in a binary does not move its loops across fetch blocks.
#if SKT_KERNELS_HAVE_AVX2

__attribute__((target("avx2"), aligned(64))) void xor_acc_avx2(std::byte* acc,
                                                               const std::byte* in,
                                                               std::size_t n) {
  std::size_t i = 0;
  for (; i + 128 <= n; i += 128) {
    for (std::size_t j = 0; j < 128; j += 32) {
      const __m256i a =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i + j));
      const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i + j));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i + j),
                          _mm256_xor_si256(a, b));
    }
  }
  for (; i + 32 <= n; i += 32) {
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), _mm256_xor_si256(a, b));
  }
  xor_acc_scalar(acc + i, in + i, n - i);
}

__attribute__((target("avx2"), aligned(64))) void xor_delta_avx2(std::byte* out,
                                                                 const std::byte* a,
                                                                 const std::byte* b,
                                                                 std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i y = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), _mm256_xor_si256(x, y));
  }
  xor_delta_scalar(out + i, a + i, b + i, n - i);
}

__attribute__((target("avx2"), aligned(64))) void sum_acc_avx2(double* acc,
                                                               const double* in,
                                                               std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d a0 = _mm256_loadu_pd(acc + i);
    const __m256d a1 = _mm256_loadu_pd(acc + i + 4);
    const __m256d b0 = _mm256_loadu_pd(in + i);
    const __m256d b1 = _mm256_loadu_pd(in + i + 4);
    _mm256_storeu_pd(acc + i, _mm256_add_pd(a0, b0));
    _mm256_storeu_pd(acc + i + 4, _mm256_add_pd(a1, b1));
  }
  for (; i < n; ++i) acc[i] += in[i];
}

__attribute__((target("avx2"), aligned(64))) void sum_sub_avx2(double* acc,
                                                               const double* in,
                                                               std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d a0 = _mm256_loadu_pd(acc + i);
    const __m256d a1 = _mm256_loadu_pd(acc + i + 4);
    const __m256d b0 = _mm256_loadu_pd(in + i);
    const __m256d b1 = _mm256_loadu_pd(in + i + 4);
    _mm256_storeu_pd(acc + i, _mm256_sub_pd(a0, b0));
    _mm256_storeu_pd(acc + i + 4, _mm256_sub_pd(a1, b1));
  }
  for (; i < n; ++i) acc[i] -= in[i];
}

/// PSHUFB split-nibble GF(2^8) multiply: for coefficient c, build the two
/// 16-entry product tables lo[x] = c*x and hi[x] = c*(x<<4); then
/// c*b = lo[b & 15] ^ hi[b >> 4] because multiplication distributes over
/// the nibble split b = (b & 15) ^ (b & 0xf0). One VPSHUFB pair multiplies
/// 32 field elements.
__attribute__((target("avx2"), aligned(64))) void gf_mul_acc_avx2(std::uint8_t* out,
                                                                  const std::uint8_t* in,
                                                                  std::size_t n,
                                                                  std::uint8_t coeff) {
  alignas(16) std::uint8_t lo[16];
  alignas(16) std::uint8_t hi[16];
  for (int x = 0; x < 16; ++x) {
    lo[x] = gf256::mul(coeff, static_cast<std::uint8_t>(x));
    hi[x] = gf256::mul(coeff, static_cast<std::uint8_t>(x << 4));
  }
  const __m256i vlo =
      _mm256_broadcastsi128_si256(_mm_load_si128(reinterpret_cast<const __m128i*>(lo)));
  const __m256i vhi =
      _mm256_broadcastsi128_si256(_mm_load_si128(reinterpret_cast<const __m128i*>(hi)));
  const __m256i nib = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    const __m256i l = _mm256_and_si256(v, nib);
    const __m256i h = _mm256_and_si256(_mm256_srli_epi64(v, 4), nib);
    const __m256i p =
        _mm256_xor_si256(_mm256_shuffle_epi8(vlo, l), _mm256_shuffle_epi8(vhi, h));
    const __m256i o = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), _mm256_xor_si256(o, p));
  }
  for (; i < n; ++i) {
    out[i] ^= static_cast<std::uint8_t>(lo[in[i] & 0x0f] ^ hi[in[i] >> 4]);
  }
}

#endif  // SKT_KERNELS_HAVE_AVX2

// ----------------------------------------------------------- dispatch ---

struct Dispatch {
  Tier tier;
  void (*xor_acc)(std::byte*, const std::byte*, std::size_t);
  void (*xor_delta)(std::byte*, const std::byte*, const std::byte*, std::size_t);
  void (*sum_acc)(double*, const double*, std::size_t);
  void (*sum_sub)(double*, const double*, std::size_t);
  void (*gf_mul_acc)(std::uint8_t*, const std::uint8_t*, std::size_t, std::uint8_t);
};

constexpr Dispatch kScalar{Tier::kScalar,    xor_acc_scalar, xor_delta_scalar,
                           sum_acc_scalar,   sum_sub_scalar, gf_mul_acc_scalar};
#if SKT_KERNELS_HAVE_AVX2
constexpr Dispatch kAvx2{Tier::kAvx2,    xor_acc_avx2, xor_delta_avx2,
                         sum_acc_avx2,   sum_sub_avx2, gf_mul_acc_avx2};
#endif

const Dispatch* pick(Tier t) {
#if SKT_KERNELS_HAVE_AVX2
  if (t == Tier::kAvx2 && util::cpu_has_avx2()) return &kAvx2;
#else
  (void)t;
#endif
  return &kScalar;
}

Tier startup_tier() {
  if (util::kernel_override() == "scalar") return Tier::kScalar;
  return Tier::kAvx2;  // pick() clamps to what exists
}

std::atomic<const Dispatch*> g_dispatch{nullptr};

const Dispatch& dispatch() {
  const Dispatch* d = g_dispatch.load(std::memory_order_acquire);
  if (d == nullptr) {
    d = pick(startup_tier());
    g_dispatch.store(d, std::memory_order_release);
  }
  return *d;
}

void check_sizes(std::size_t a, std::size_t b, const char* what) {
  if (a != b) throw std::invalid_argument(std::string(what) + ": size mismatch");
}

}  // namespace

bool simd_compiled() { return SKT_KERNELS_HAVE_AVX2 != 0; }

Tier active_tier() { return dispatch().tier; }

Tier force_tier(Tier t) {
  const Tier prev = dispatch().tier;
  g_dispatch.store(pick(t), std::memory_order_release);
  return prev;
}

void xor_acc(std::span<std::byte> acc, std::span<const std::byte> in) {
  check_sizes(acc.size(), in.size(), "kernels::xor_acc");
  dispatch().xor_acc(acc.data(), in.data(), acc.size());
}

void xor_delta(std::span<std::byte> out, std::span<const std::byte> a,
               std::span<const std::byte> b) {
  check_sizes(out.size(), a.size(), "kernels::xor_delta");
  check_sizes(a.size(), b.size(), "kernels::xor_delta");
  dispatch().xor_delta(out.data(), a.data(), b.data(), out.size());
}

void sum_acc(std::span<double> acc, std::span<const double> in) {
  check_sizes(acc.size(), in.size(), "kernels::sum_acc");
  dispatch().sum_acc(acc.data(), in.data(), acc.size());
}

void sum_sub(std::span<double> acc, std::span<const double> in) {
  check_sizes(acc.size(), in.size(), "kernels::sum_sub");
  dispatch().sum_sub(acc.data(), in.data(), acc.size());
}

void gf256_mul_acc(std::span<std::uint8_t> out, std::span<const std::uint8_t> in,
                   std::uint8_t coeff) {
  check_sizes(out.size(), in.size(), "kernels::gf256_mul_acc");
  if (coeff == 0) return;
  if (coeff == 1) {
    dispatch().xor_acc(reinterpret_cast<std::byte*>(out.data()),
                       reinterpret_cast<const std::byte*>(in.data()), out.size());
    return;
  }
  dispatch().gf_mul_acc(out.data(), in.data(), out.size(), coeff);
}

}  // namespace skt::enc::kernels
