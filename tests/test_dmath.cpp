// Tests for common/dmath: the batch forms, and each SIMD width on its own,
// equal the scalar forms bit for bit, every result is within 1 ulp of the
// x87 long-double libm, and the special values (NaN, +-Inf, the fallback
// bound, exp's overflow and underflow) are pinned.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

#include "common/cpu.h"
#include "common/dmath.h"
#include "rng/splitmix.h"

namespace fastpso::dmath {
namespace {

/// 2^19 pi/2 rounded: the largest |x| on the owned (host-independent) path.
constexpr double kFastBound = 0x1.921fb54442d18p+19;

/// |got - want| in units of the last place of `want` rounded to double.
double ulps(double got, long double want) {
  const double rounded = static_cast<double>(want);
  if (got == rounded || (std::isnan(got) && std::isnan(rounded))) {
    return 0.0;
  }
  int exponent = 0;
  std::frexp(rounded, &exponent);
  const long double ulp = std::ldexp(1.0L, std::max(exponent - 53, -1074));
  return static_cast<double>(
      std::fabs(static_cast<long double>(got) - want) / ulp);
}

/// Linear sweep of `count` points over [lo, hi].
void sweep(std::vector<double>& xs, double lo, double hi, int count) {
  for (int i = 0; i < count; ++i) {
    xs.push_back(lo + (hi - lo) * i / (count - 1));
  }
}

/// Checks cos/sin over `xs`: scalar == batch bit for bit (batches of every
/// tail length 0-7 at every alignment), and within 1 ulp of cosl/sinl.
void check_trig(const std::vector<double>& xs) {
  const std::size_t n = xs.size();
  std::vector<double> batch_cos(n);
  std::vector<double> batch_sin(n);
  // Batch lengths cycle through 1..67, so calls start at every offset mod
  // 4 (unaligned loads and stores) and end with every tail length.
  for (std::size_t b = 0, len = 1; b < n; b += len, len = len % 67 + 1) {
    const std::size_t m = std::min(len, n - b);
    cos_n(xs.data() + b, batch_cos.data() + b, m);
    sin_n(xs.data() + b, batch_sin.data() + b, m);
  }
  std::size_t mismatches = 0;
  double worst_cos = 0.0;
  double worst_sin = 0.0;
  double worst_cos_x = 0.0;
  double worst_sin_x = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = xs[i];
    const double c = cos(x);
    const double s = sin(x);
    mismatches += std::bit_cast<std::uint64_t>(c) !=
                      std::bit_cast<std::uint64_t>(batch_cos[i]) ||
                  std::bit_cast<std::uint64_t>(s) !=
                      std::bit_cast<std::uint64_t>(batch_sin[i]);
    const double ec = ulps(c, cosl(static_cast<long double>(x)));
    const double es = ulps(s, sinl(static_cast<long double>(x)));
    if (ec > worst_cos) {
      worst_cos = ec;
      worst_cos_x = x;
    }
    if (es > worst_sin) {
      worst_sin = es;
      worst_sin_x = x;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << n << " inputs";
  EXPECT_LE(worst_cos, 1.0) << "cos at x = " << worst_cos_x;
  EXPECT_LE(worst_sin, 1.0) << "sin at x = " << worst_sin_x;
}

// The arguments the built-in problems pass: Griewank x/sqrt(i+1) in
// (-600, 600), Easom x in (-2pi, 2pi), Rastrigin and Ackley 2 pi x up to
// ~206, Schwefel sqrt|x| up to ~22.4, Levy pi w + 1 and 2 pi w up to ~21.
TEST(Dmath, TrigDenseOverProblemArguments) {
  std::vector<double> xs;
  sweep(xs, -620.0, 620.0, 2'000'001);
  sweep(xs, -2.0 * std::numbers::pi, 2.0 * std::numbers::pi, 500'001);
  sweep(xs, -210.0, 210.0, 1'000'001);
  sweep(xs, -25.0, 25.0, 500'001);
  check_trig(xs);
}

TEST(Dmath, TrigRandomOverFastRange) {
  rng::SplitMix64 gen(17);
  std::vector<double> xs;
  for (int i = 0; i < 2'000'000; ++i) {
    xs.push_back((2.0 * gen.next_unit() - 1.0) * kFastBound);
  }
  // Magnitudes spread over 2^-40 .. 2^19: tiny arguments too.
  for (int i = 0; i < 1'000'000; ++i) {
    const double mag = std::ldexp(1.0 + gen.next_unit(),
                                  static_cast<int>(gen.next() % 60) - 41);
    xs.push_back(gen.next() % 2 == 0 ? mag : -mag);
  }
  check_trig(xs);
}

// Doubles nearest to k pi/2 and their neighbours one ulp away: the
// arguments with the heaviest cancellation in the reduction.
TEST(Dmath, TrigNearMultiplesOfHalfPi) {
  const long double half_pi = std::numbers::pi_v<long double> / 2;
  std::vector<double> xs;
  for (long k = -(1L << 19); k <= (1L << 19); ++k) {
    const double x = static_cast<double>(static_cast<long double>(k) * half_pi);
    if (std::fabs(x) > kFastBound) {
      continue;
    }
    xs.push_back(std::nextafter(x, -kFastBound));
    xs.push_back(x);
    xs.push_back(std::nextafter(x, kFastBound));
  }
  check_trig(xs);
}

TEST(Dmath, TrigSpecialValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (const double x : {kNan, kInf, -kInf}) {
    EXPECT_TRUE(std::isnan(cos(x))) << x;
    EXPECT_TRUE(std::isnan(sin(x))) << x;
  }
  EXPECT_EQ(cos(0.0), 1.0);
  EXPECT_EQ(cos(-0.0), 1.0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sin(0.0)),
            std::bit_cast<std::uint64_t>(0.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sin(-0.0)),
            std::bit_cast<std::uint64_t>(-0.0));
  // Both sides of the fallback bound, in the scalar and the batch form.
  std::vector<double> xs;
  for (const double edge : {kFastBound, -kFastBound}) {
    double x = edge;
    for (int step = 0; step < 4; ++step) {
      x = std::nextafter(x, 0.0);
    }
    for (int step = 0; step < 8; ++step) {
      xs.push_back(x);
      x = std::nextafter(x, 2.0 * edge);
    }
  }
  xs.push_back(1e6);
  xs.push_back(-3.5e12);
  xs.push_back(std::numeric_limits<double>::max());
  xs.push_back(kNan);
  xs.push_back(kInf);
  xs.push_back(-kInf);
  std::vector<double> batch(xs.size());
  cos_n(xs.data(), batch.data(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double x = xs[i];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(batch[i]),
              std::bit_cast<std::uint64_t>(cos(x)))
        << x;
    if (std::isfinite(x)) {
      EXPECT_LE(ulps(cos(x), cosl(static_cast<long double>(x))), 1.0) << x;
      EXPECT_LE(ulps(sin(x), sinl(static_cast<long double>(x))), 1.0) << x;
    }
  }
  // In place: out == x.
  std::vector<double> inplace = xs;
  sin_n(inplace.data(), inplace.data(), inplace.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(inplace[i]),
              std::bit_cast<std::uint64_t>(sin(xs[i])))
        << xs[i];
  }
}

#ifdef FASTPSO_X86_SIMD
// cos_n and sin_n hand AVX2 only what the AVX-512F groups leave, so on an
// AVX-512F host the AVX2 loop sees at most one group per call. These tests
// call each width directly; a width the CPU lacks is skipped.

using TrigForm = std::size_t (*)(const double*, double*, std::size_t, bool);

/// Checks that `form`, `width` values per group, equals the scalar cos and
/// sin bit for bit over `xs`, and that it stops at the last whole group.
void expect_form_matches_scalar(TrigForm form, std::size_t width,
                                const std::vector<double>& xs) {
  constexpr double kGuard = 123.0;
  const std::size_t whole = xs.size() - xs.size() % width;
  for (const bool sine : {false, true}) {
    std::vector<double> out(xs.size(), kGuard);
    ASSERT_EQ(form(xs.data(), out.data(), xs.size(), sine), whole);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double want = i < whole ? (sine ? sin(xs[i]) : cos(xs[i])) : kGuard;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                std::bit_cast<std::uint64_t>(want))
          << (sine ? "sin" : "cos") << " at x = " << xs[i] << ", index " << i;
    }
  }
}

/// Each input that sends its whole group to the scalar form (NaN, +-Inf,
/// the first double past kFastBound, a third-stage input next to 3 pi/2)
/// at each lane position of the middle group of three, plus a tail. Then a
/// dense sweep over the problems' argument range and near multiples of
/// pi/2, at an offset that leaves a tail.
void expect_width_matches_scalar(TrigForm form, std::size_t width) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double fallbacks[] = {
      std::numeric_limits<double>::quiet_NaN(), kInf, -kInf,
      std::nextafter(kFastBound, kInf),
      static_cast<double>(3 * std::numbers::pi_v<long double> / 2)};
  for (const double fallback : fallbacks) {
    for (std::size_t lane = 0; lane < width; ++lane) {
      std::vector<double> xs;
      sweep(xs, -600.0, 600.0, static_cast<int>(3 * width + 3));
      xs[width + lane] = fallback;
      SCOPED_TRACE(::testing::Message() << "fallback " << fallback
                                        << " at lane " << lane);
      expect_form_matches_scalar(form, width, xs);
    }
  }
  std::vector<double> xs;
  sweep(xs, -620.0, 620.0, 200'003);
  const long double half_pi = std::numbers::pi_v<long double> / 2;
  for (long k = -2000; k <= 2000; ++k) {
    const double x = static_cast<double>(static_cast<long double>(k) * half_pi);
    xs.push_back(std::nextafter(x, -kInf));
    xs.push_back(x);
    xs.push_back(std::nextafter(x, kInf));
  }
  expect_form_matches_scalar(form, width, xs);
  expect_form_matches_scalar(form, width,
                             std::vector<double>(xs.begin() + 5, xs.end()));
}

TEST(Dmath, TrigAvx512GroupsMatchScalar) {
  if (!cpu_has_avx512()) {
    GTEST_SKIP() << "the CPU has no AVX-512F";
  }
  expect_width_matches_scalar(detail::trig_avx512, 8);
}

TEST(Dmath, TrigAvx2GroupsMatchScalar) {
  if (!cpu_has_avx2()) {
    GTEST_SKIP() << "the CPU has no AVX2";
  }
  expect_width_matches_scalar(detail::trig_avx2, 4);
}
#endif  // FASTPSO_X86_SIMD

TEST(Dmath, ExpWithinOneUlp) {
  std::vector<double> xs;
  sweep(xs, -746.0, 710.0, 1'000'001);  // the whole finite, nonzero range
  sweep(xs, -40.0, 40.0, 1'000'001);    // Ackley and Easom arguments
  sweep(xs, -1.0, 1.0, 200'001);
  rng::SplitMix64 gen(29);
  for (int i = 0; i < 500'000; ++i) {
    xs.push_back(-746.0 + 1456.0 * gen.next_unit());
  }
  double worst = 0.0;
  double worst_x = 0.0;
  for (const double x : xs) {
    const double e = ulps(exp(x), expl(static_cast<long double>(x)));
    if (e > worst) {
      worst = e;
      worst_x = x;
    }
  }
  EXPECT_LE(worst, 1.0) << "exp at x = " << worst_x;
}

TEST(Dmath, ExpSpecialValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(exp(kInf), kInf);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(exp(-kInf)),
            std::bit_cast<std::uint64_t>(0.0));
  EXPECT_TRUE(std::isnan(exp(kNan)));
  EXPECT_EQ(exp(0.0), 1.0);
  EXPECT_EQ(exp(-0.0), 1.0);
  EXPECT_EQ(exp(1e-300), 1.0);
  // Overflow: ln(DBL_MAX) ~ 709.7827128933840.
  EXPECT_TRUE(std::isfinite(exp(709.78)));
  EXPECT_LE(ulps(exp(709.78), expl(static_cast<long double>(709.78))), 1.0);
  EXPECT_EQ(exp(709.79), kInf);
  EXPECT_EQ(exp(710.0), kInf);
  EXPECT_EQ(exp(1e300), kInf);
  // Underflow through the subnormals: exp(x) < DBL_MIN below ~-708.3964.
  for (const double x : {-708.5, -720.0, -740.0, -745.0}) {
    const double e = exp(x);
    EXPECT_GT(e, 0.0) << x;
    EXPECT_LT(e, std::numeric_limits<double>::min()) << x;
    EXPECT_LE(ulps(e, expl(static_cast<long double>(x))), 1.0) << x;
  }
  // The smallest subnormal, then +0: exp(x) < 2^-1075 below ~-745.1332.
  EXPECT_EQ(exp(-745.13), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(exp(-745.14)),
            std::bit_cast<std::uint64_t>(0.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(exp(-1e300)),
            std::bit_cast<std::uint64_t>(0.0));
}

}  // namespace
}  // namespace fastpso::dmath
