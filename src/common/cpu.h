// Host CPU feature checks for the run-time-selected SIMD paths.
//
// The build targets baseline x86-64, so SIMD code is compiled per function
// (FASTPSO_AVX2 and FASTPSO_AVX512, available where FASTPSO_X86_SIMD is
// defined) and entered only when cpu_has_avx2() or cpu_has_avx512() finds
// the feature. The batch forms run AVX-512F groups first, then AVX2 groups
// on what is left, then the scalar form; every form computes the scalar
// form's bits. Only pointers and scalars cross between those functions and
// baseline code: a vector passed by value across a target boundary changes
// the calling convention (gcc's -Wpsabi, an error under FASTPSO_WERROR).
#pragma once

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FASTPSO_X86_SIMD 1
#define FASTPSO_AVX2 __attribute__((target("avx2")))
#define FASTPSO_AVX512 __attribute__((target("avx512f")))
#endif

namespace fastpso {

/// One-time check for AVX2; false where FASTPSO_X86_SIMD is not defined.
inline bool cpu_has_avx2() {
#ifdef FASTPSO_X86_SIMD
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
#else
  return false;
#endif
}

/// One-time check for AVX-512F (with the OS saving its registers); false
/// where FASTPSO_X86_SIMD is not defined.
inline bool cpu_has_avx512() {
#ifdef FASTPSO_X86_SIMD
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0;
  }();
  return has;
#else
  return false;
#endif
}

/// The widest SIMD form the batch paths run on this host: "avx512f",
/// "avx2" or "scalar". Bench artifacts record it next to their readings.
inline const char* cpu_simd_name() {
  if (cpu_has_avx512()) {
    return "avx512f";
  }
  return cpu_has_avx2() ? "avx2" : "scalar";
}

}  // namespace fastpso
