#include "util/cpu.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace skt::util {
namespace {

struct Features {
  bool avx2 = false;
  bool fma = false;
  bool ssse3 = false;

  Features() {
#if defined(__x86_64__) || defined(__i386__)
    // __builtin_cpu_supports consults cpuid AND xgetbv, so AVX2 is only
    // reported when the OS actually saves the ymm state.
    __builtin_cpu_init();
    avx2 = __builtin_cpu_supports("avx2") != 0;
    fma = __builtin_cpu_supports("fma") != 0;
    ssse3 = __builtin_cpu_supports("ssse3") != 0;
#endif
  }
};

const Features& features() {
  static const Features f;
  return f;
}

}  // namespace

bool cpu_has_avx2() { return features().avx2; }

bool cpu_has_fma() { return features().fma; }

bool cpu_has_ssse3() { return features().ssse3; }

std::string kernel_override() {
  const char* env = std::getenv("SKT_KERNELS");
  if (env == nullptr) return {};
  std::string v(env);
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return v;
}

std::string cpu_simd_summary() {
  std::string s;
  if (cpu_has_avx2()) s += "avx2";
  if (cpu_has_fma()) s += s.empty() ? "fma" : "+fma";
  if (cpu_has_ssse3()) s += s.empty() ? "ssse3" : "+ssse3";
  if (s.empty()) s = "scalar-only";
  return s;
}

}  // namespace skt::util
