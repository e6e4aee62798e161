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
// The batch forms cos_n/sin_n compute four values per step with AVX2 when a
// one-time CPU check finds it. They run the scalar form's operations in the
// same order, so each output is bitwise-equal to the scalar call.
#pragma once

#include <cstddef>

namespace fastpso::dmath {

[[nodiscard]] double cos(double x);
[[nodiscard]] double sin(double x);
[[nodiscard]] double exp(double x);

/// out[i] = cos(x[i]) for i in [0, n). `out` may be `x` itself.
void cos_n(const double* x, double* out, std::size_t n);
/// out[i] = sin(x[i]) for i in [0, n). `out` may be `x` itself.
void sin_n(const double* x, double* out, std::size_t n);

}  // namespace fastpso::dmath
