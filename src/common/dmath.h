// Repository-owned cos, sin and exp for objective evaluation.
//
// Host libm picks its cos/sin/exp variant by CPU, so its results are
// reproducible per host only; CUDA's libdevice gives every GPU the same
// bits. These functions run one fixed sequence of IEEE double operations
// (no FMA: the build passes -ffp-contract=off), so they give the same bits
// on every x86-64 host:
//
// - cos/sin: Cody-Waite reduction by pi/2 (fdlibm's three-part split), then
//   fdlibm-shaped kernels with Taylor coefficients on the double-double
//   reduced argument. Within 1 ulp for |x| <= 2^19 pi/2 (~823,550); NaN for
//   NaN and +-Inf. Larger finite |x| falls back to the host libm, the one
//   host-dependent range (no built-in problem comes near it).
// - exp: reduction by ln 2 (two-part split), a Taylor polynomial and an
//   exact scaling by 2^k. Within 1 ulp; overflows to +Inf, underflows
//   through the subnormals to +0, NaN for NaN.
//
// The batch forms cos_n/sin_n compute eight values per step with AVX-512F,
// then four per step with AVX2, as one-time CPU checks allow, then the rest
// in the scalar form. Every lane runs the scalar form's operations in the
// same order (the scalar and eight-wide forms share one template over the
// lane type; the four-wide form spells the same operations in AVX2
// intrinsics), so each output is bitwise-equal to the scalar call.
#pragma once

#include <cstddef>

#include "common/cpu.h"

namespace fastpso::dmath {

[[nodiscard]] double cos(double x);
[[nodiscard]] double sin(double x);
[[nodiscard]] double exp(double x);

/// out[i] = cos(x[i]) for i in [0, n). `out` may be `x` itself.
void cos_n(const double* x, double* out, std::size_t n);
/// out[i] = sin(x[i]) for i in [0, n). `out` may be `x` itself.
void sin_n(const double* x, double* out, std::size_t n);

namespace detail {
#ifdef FASTPSO_X86_SIMD
/// One SIMD width of cos_n (sin_n when `sine`), entered without the CPU
/// check: the caller makes sure the CPU has the feature. It covers the
/// first n - n % w inputs in groups of w = 4 (AVX2) or 8 (AVX-512F) and
/// returns that count. cos_n and sin_n chain them; tests pin each width.
FASTPSO_AVX2 std::size_t trig_avx2(const double* x, double* out,
                                   std::size_t n, bool sine);
FASTPSO_AVX512 std::size_t trig_avx512(const double* x, double* out,
                                       std::size_t n, bool sine);
#endif
}  // namespace detail

}  // namespace fastpso::dmath
