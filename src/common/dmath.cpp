#include "common/dmath.h"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/cpu.h"

#ifdef FASTPSO_X86_SIMD
#include <immintrin.h>
#endif

namespace fastpso::dmath {
namespace {

// BEGIN derived constants: python3 src/common/dmath_constants.py
// regenerates this block and --check compares it (a ctest when CMake finds
// Python 3).
constexpr double kShifter = 0x1.8p+52;
constexpr double kTwoOverPi = 0x1.45f306dc9c883p-1;
constexpr double kPio2_1 = 0x1.921fb544p+0;
constexpr double kPio2_2 = 0x1.0b4611a6p-34;
constexpr double kPio2_2t = 0x1.3198a2e037073p-69;
constexpr double kPio2_3 = 0x1.3198a2ep-69;
constexpr double kPio2_3t = 0x1.b839a252049c1p-104;
constexpr double kFastBound = 0x1.921fb54442d18p+19;
constexpr double kC4 = 0x1.5555555555555p-5;
constexpr double kC6 = -0x1.6c16c16c16c17p-10;
constexpr double kC8 = 0x1.a01a01a01a01ap-16;
constexpr double kC10 = -0x1.27e4fb7789f5cp-22;
constexpr double kC12 = 0x1.1eed8eff8d898p-29;
constexpr double kC14 = -0x1.93974a8c07c9dp-37;
constexpr double kC16 = 0x1.ae7f3e733b81fp-45;
constexpr double kS3 = -0x1.5555555555555p-3;
constexpr double kS5 = 0x1.1111111111111p-7;
constexpr double kS7 = -0x1.a01a01a01a01ap-13;
constexpr double kS9 = 0x1.71de3a556c734p-19;
constexpr double kS11 = -0x1.ae64567f544e4p-26;
constexpr double kS13 = 0x1.6124613a86d09p-33;
constexpr double kS15 = -0x1.ae7f3e733b81fp-41;
constexpr double kS17 = 0x1.952c77030ad4ap-49;
constexpr double kInvLn2 = 0x1.71547652b82fep+0;
constexpr double kLn2Hi = 0x1.62e42feep-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
constexpr double kE2 = 0x1p-1;
constexpr double kE3 = 0x1.5555555555555p-3;
constexpr double kE4 = 0x1.5555555555555p-5;
constexpr double kE5 = 0x1.1111111111111p-7;
constexpr double kE6 = 0x1.6c16c16c16c17p-10;
constexpr double kE7 = 0x1.a01a01a01a01ap-13;
constexpr double kE8 = 0x1.a01a01a01a01ap-16;
constexpr double kE9 = 0x1.71de3a556c734p-19;
constexpr double kE10 = 0x1.27e4fb7789f5cp-22;
constexpr double kE11 = 0x1.ae64567f544e4p-26;
constexpr double kE12 = 0x1.1eed8eff8d898p-29;
constexpr double kE13 = 0x1.6124613a86d09p-33;
// END derived constants

/// The third reduction stage runs when |y0| < |x| * 2^-49: x lies so close
/// to a multiple of pi/2 that two stages leave too few correct bits. Running
/// it unconditionally would drop the second stage's rounding error.
constexpr double kHeavyCancel = 0x1p-49;

/// Outside [kExpMin, kExpMax], exp is +0 or +Inf; inside, the scaling by
/// 2^k rounds overflow and underflow once, as IEEE multiplication does.
constexpr double kExpMax = 710.0;
constexpr double kExpMin = -746.0;

/// Quadrant offsets: sin(x) = cos(x - pi/2) is cos three quadrants on.
constexpr std::uint64_t kCosShift = 0;
constexpr std::uint64_t kSinShift = 3;

/// Polynomial coefficients, highest degree first: cos(x) = 1 - x^2/2 +
/// x^4 P(x^2), sin(x) = x + x^3 (kS3 + x^2 Q(x^2)), exp(x) = 1 + x + x^2
/// E(x).
constexpr std::array<double, 7> kCosPoly = {kC16, kC14, kC12, kC10,
                                            kC8,  kC6,  kC4};
constexpr std::array<double, 7> kSinPoly = {kS17, kS15, kS13, kS11,
                                            kS9,  kS7,  kS5};
constexpr std::array<double, 12> kExpPoly = {kE13, kE12, kE11, kE10,
                                             kE9,  kE8,  kE7,  kE6,
                                             kE5,  kE4,  kE3,  kE2};

// Lane arithmetic, written once for the scalar form and the AVX-512F
// groups. V is double or a vector of eight doubles (GCC/Clang vector
// extension); its built-in operators run the same IEEE operation on every
// lane and broadcast a scalar operand, so every lane repeats the scalar
// form's operations in its order. Always inlined, with lane values passed
// by reference (never by value, see common/cpu.h), so the vector
// instantiation compiles inside its target function.
#define FASTPSO_LANES [[gnu::always_inline]] inline

template <typename V, std::size_t N>
FASTPSO_LANES void horner(const V& z, const std::array<double, N>& c, V& p) {
  p = V{} + c[0];
  for (std::size_t i = 1; i < N; ++i) {
    p = c[i] + z * p;
  }
}

/// cos(x + y) for |x + y| <= ~pi/4, y the tail of a double-double.
template <typename V>
FASTPSO_LANES void kernel_cos(const V& x, const V& y, V& k) {
  const V z = x * x;
  V p{};
  horner(z, kCosPoly, p);
  const V r = z * p;
  const V hz = 0.5 * z;
  const V w = 1.0 - hz;
  k = w + (((1.0 - w) - hz) + (z * r - x * y));
}

/// sin(x + y) for |x + y| <= ~pi/4, y the tail of a double-double.
template <typename V>
FASTPSO_LANES void kernel_sin(const V& x, const V& y, V& k) {
  const V z = x * x;
  const V v = z * x;
  V r{};
  horner(z, kSinPoly, r);
  k = x - ((z * (0.5 * y - v * r) - y) - v * kS3);
}

/// Stages 1 and 2 of the reduction by pi/2: y0 + ((r - y0) - w) = x - fn *
/// (kPio2_1 + kPio2_2 + kPio2_2t), fn = x * 2/pi rounded to the nearest
/// integer; t's low mantissa bits hold fn mod 4, the quadrant. |fn| <= 2^19,
/// so each fn * kPio2_k (33-bit head) is exact.
template <typename V>
FASTPSO_LANES void reduce(const V& x, V& t, V& fn, V& r, V& w, V& y0) {
  t = x * kTwoOverPi + kShifter;
  fn = t - kShifter;
  const V r1 = x - fn * kPio2_1;
  const V w2 = fn * kPio2_2;
  r = r1 - w2;
  w = fn * kPio2_2t - ((r1 - r) - w2);
  y0 = r - w;
}

#undef FASTPSO_LANES

/// cos(x) for shift 0, sin(x) for shift 3. The SIMD groups below run these
/// operations lane by lane and hand a group with a fallback or third-stage
/// lane to this form.
double trig(double x, std::uint64_t shift) {
  const double ax = std::fabs(x);
  if (!(ax <= kFastBound)) {
    if (!std::isfinite(x)) {
      return x - x;  // NaN for NaN and +-Inf
    }
    return shift == kCosShift ? std::cos(x) : std::sin(x);
  }
  double t = 0.0;
  double fn = 0.0;
  double r = 0.0;
  double w = 0.0;
  double y0 = 0.0;
  reduce(x, t, fn, r, w, y0);
  if (std::fabs(y0) < ax * kHeavyCancel) {
    const double r2 = r;
    const double w3 = fn * kPio2_3;
    r = r2 - w3;
    w = fn * kPio2_3t - ((r2 - r) - w3);
    y0 = r - w;
  }
  const double y1 = (r - y0) - w;
  const std::uint64_t q = std::bit_cast<std::uint64_t>(t) + shift;
  double k = 0.0;
  if ((q & 1) != 0) {
    kernel_sin(y0, y1, k);
  } else {
    kernel_cos(y0, y1, k);
  }
  return ((q + 1) & 2) != 0 ? -k : k;
}

std::uint64_t shift_of(bool sine) { return sine ? kSinShift : kCosShift; }

/// The scalar form on x[i, i + width).
void trig_group(const double* x, double* out, std::size_t i,
                std::size_t width, std::uint64_t shift) {
  for (std::size_t j = i; j < i + width; ++j) {
    out[j] = trig(x[j], shift);
  }
}

}  // namespace

#ifdef FASTPSO_X86_SIMD
namespace {

// The AVX2 group's own four-lane forms of the lane arithmetic, in
// intrinsics. Written over the lane templates instead, gcc schedules the
// group's loop differently and it ran about 1% slower.

FASTPSO_AVX2 inline __m256d mul(__m256d a, __m256d b) {
  return _mm256_mul_pd(a, b);
}
FASTPSO_AVX2 inline __m256d add(__m256d a, __m256d b) {
  return _mm256_add_pd(a, b);
}
FASTPSO_AVX2 inline __m256d sub(__m256d a, __m256d b) {
  return _mm256_sub_pd(a, b);
}
FASTPSO_AVX2 inline __m256d splat(double v) { return _mm256_set1_pd(v); }

template <std::size_t N>
FASTPSO_AVX2 inline __m256d horner4(__m256d z,
                                    const std::array<double, N>& c) {
  __m256d p = splat(c[0]);
  for (std::size_t i = 1; i < N; ++i) {
    p = add(splat(c[i]), mul(z, p));
  }
  return p;
}

/// kernel_cos on four lanes.
FASTPSO_AVX2 inline __m256d kernel_cos4(__m256d x, __m256d y) {
  const __m256d z = mul(x, x);
  const __m256d r = mul(z, horner4(z, kCosPoly));
  const __m256d hz = mul(splat(0.5), z);
  const __m256d w = sub(splat(1.0), hz);
  return add(w, add(sub(sub(splat(1.0), w), hz), sub(mul(z, r), mul(x, y))));
}

/// kernel_sin on four lanes.
FASTPSO_AVX2 inline __m256d kernel_sin4(__m256d x, __m256d y) {
  const __m256d z = mul(x, x);
  const __m256d v = mul(z, x);
  const __m256d r = horner4(z, kSinPoly);
  return sub(x, sub(sub(mul(z, sub(mul(splat(0.5), y), mul(v, r))), y),
                    mul(v, splat(kS3))));
}

}  // namespace

// Both widths test the group first: a lane outside the fast range, or near
// a multiple of pi/2 (third stage), sends the whole group to the scalar
// form, which computes the same bits. Otherwise every lane takes both
// kernels, and the quadrant's low bit picks sin over cos and its next bit
// the sign.

FASTPSO_AVX2 std::size_t detail::trig_avx2(const double* x, double* out,
                                           std::size_t n, bool sine) {
  const std::uint64_t shift = shift_of(sine);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i two = _mm256_set1_epi64x(2);
  const __m256i shift_v = _mm256_set1_epi64x(static_cast<long long>(shift));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    const __m256d ax = _mm256_and_pd(xv, abs_mask);
    if (_mm256_movemask_pd(_mm256_cmp_pd(ax, splat(kFastBound),
                                         _CMP_LE_OQ)) != 0xF) {
      trig_group(x, out, i, 4, shift);
      continue;
    }
    const __m256d t = add(mul(xv, splat(kTwoOverPi)), splat(kShifter));
    const __m256d fn = sub(t, splat(kShifter));
    const __m256d r1 = sub(xv, mul(fn, splat(kPio2_1)));
    const __m256d w2 = mul(fn, splat(kPio2_2));
    const __m256d r = sub(r1, w2);
    const __m256d w = sub(mul(fn, splat(kPio2_2t)), sub(sub(r1, r), w2));
    const __m256d y0 = sub(r, w);
    if (_mm256_movemask_pd(_mm256_cmp_pd(_mm256_and_pd(y0, abs_mask),
                                         mul(ax, splat(kHeavyCancel)),
                                         _CMP_LT_OQ)) != 0) {
      trig_group(x, out, i, 4, shift);
      continue;
    }
    const __m256d y1 = sub(sub(r, y0), w);
    const __m256i q = _mm256_add_epi64(_mm256_castpd_si256(t), shift_v);
    const __m256d odd = _mm256_castsi256_pd(
        _mm256_cmpeq_epi64(_mm256_and_si256(q, one), one));
    const __m256d sign = _mm256_castsi256_pd(_mm256_slli_epi64(
        _mm256_and_si256(_mm256_add_epi64(q, one), two), 62));
    const __m256d k =
        _mm256_blendv_pd(kernel_cos4(y0, y1), kernel_sin4(y0, y1), odd);
    _mm256_storeu_pd(out + i, _mm256_xor_pd(k, sign));
  }
  return i;
}

FASTPSO_AVX512 std::size_t detail::trig_avx512(const double* x, double* out,
                                               std::size_t n, bool sine) {
  const auto shift = static_cast<long long>(shift_of(sine));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d xv = _mm512_loadu_pd(x + i);
    const __m512d ax = _mm512_abs_pd(xv);
    if (_mm512_cmp_pd_mask(ax, _mm512_set1_pd(kFastBound), _CMP_LE_OQ) !=
        0xFF) {
      trig_group(x, out, i, 8, shift);
      continue;
    }
    __m512d t{};
    __m512d fn{};
    __m512d r{};
    __m512d w{};
    __m512d y0{};
    reduce(xv, t, fn, r, w, y0);
    if (_mm512_cmp_pd_mask(_mm512_abs_pd(y0), ax * kHeavyCancel,
                           _CMP_LT_OQ) != 0) {
      trig_group(x, out, i, 8, shift);
      continue;
    }
    const __m512d y1 = (r - y0) - w;
    const __m512i q = _mm512_castpd_si512(t) + shift;
    const __mmask8 odd = _mm512_test_epi64_mask(q, _mm512_set1_epi64(1));
    const __m512i sign = ((q + 1) & 2) << 62;
    __m512d kc{};
    __m512d ks{};
    kernel_cos(y0, y1, kc);
    kernel_sin(y0, y1, ks);
    const __m512i k = _mm512_castpd_si512(_mm512_mask_blend_pd(odd, kc, ks));
    _mm512_storeu_pd(out + i, _mm512_castsi512_pd(k ^ sign));
  }
  return i;
}

#endif  // FASTPSO_X86_SIMD

namespace {

void trig_n(const double* x, double* out, std::size_t n, bool sine) {
  std::size_t done = 0;
#ifdef FASTPSO_X86_SIMD
  if (n >= 8 && cpu_has_avx512()) {
    done = detail::trig_avx512(x, out, n, sine);
  }
  if (n - done >= 4 && cpu_has_avx2()) {
    done += detail::trig_avx2(x + done, out + done, n - done, sine);
  }
#endif
  trig_group(x, out, done, n - done, shift_of(sine));
}

/// 2^e for e in the normal exponent range.
double pow2(int e) {
  return std::bit_cast<double>(static_cast<std::uint64_t>(e + 1023) << 52);
}

}  // namespace

double cos(double x) { return trig(x, kCosShift); }

double sin(double x) { return trig(x, kSinShift); }

void cos_n(const double* x, double* out, std::size_t n) {
  trig_n(x, out, n, false);
}

void sin_n(const double* x, double* out, std::size_t n) {
  trig_n(x, out, n, true);
}

double exp(double x) {
  if (std::isnan(x)) {
    return x + x;
  }
  if (x > kExpMax) {
    return std::numeric_limits<double>::infinity();
  }
  if (x < kExpMin) {
    return 0.0;
  }
  // x = k ln2 + (hi - lo) with |hi - lo| <= ~ln2/2; k * kLn2Hi is exact.
  const double kd = (x * kInvLn2 + kShifter) - kShifter;
  const int k = static_cast<int>(kd);
  const double hi = x - kd * kLn2Hi;
  const double lo = kd * kLn2Lo;
  const double r = hi - lo;
  // p = exp(r) - 1 - r.
  double poly = 0.0;
  horner(r, kExpPoly, poly);
  const double p = r * r * poly;
  // 1 + hi as s + e exactly (Fast2Sum: |hi| < 1), so that the last
  // addition is the only rounding of size.
  const double s = 1.0 + hi;
  const double e = (1.0 - s) + hi;
  const double y = s + (e - (lo - p));
  // Two exact power-of-two factors, each in the normal range: the second
  // multiply is the only rounding, into the subnormals or to +Inf.
  const int k1 = k / 2;
  return y * pow2(k1) * pow2(k - k1);
}

}  // namespace fastpso::dmath
