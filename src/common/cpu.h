// Host CPU feature checks for the run-time-selected SIMD paths.
//
// The build targets baseline x86-64, so SIMD code is compiled per function
// (`__attribute__((target("avx2")))`, available where FASTPSO_X86_AVX2 is
// defined) and entered only when cpu_has_avx2() finds the feature.
#pragma once

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FASTPSO_X86_AVX2 1
#endif

namespace fastpso {

/// One-time check for AVX2; false where FASTPSO_X86_AVX2 is not defined.
inline bool cpu_has_avx2() {
#ifdef FASTPSO_X86_AVX2
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
#else
  return false;
#endif
}

}  // namespace fastpso
