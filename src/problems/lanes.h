// Row views for the objective formulas in problems/functions.h.
//
// Each built-in writes its formula once, as a template over a row view:
//
// - Row<T> is one particle row; its lane type is double. eval_f32, eval_f64,
//   the tail rows of a batch and hosts without AVX2 run this form.
// - Rows4 is four float rows, one per lane of a four-double vector. With
//   AVX2, ProblemBase::eval_batch runs four rows per step in this form.
//
// A formula runs the same IEEE operations on every lane, in the same order,
// as on one row, so each lane's bits equal the row form's: each output of a
// four-row step equals (float)eval_f32 of its row.
//
// The four-lane instantiation is compiled as baseline x86-64 code and
// inlined (flatten) into the AVX2 entry rows4_avx2, so a formula keeps to
// three rules:
// - Lane values pass by reference and never return by value: a 32-byte
//   vector passed or returned by value changes the calling convention
//   without AVX (gcc's -Wpsabi, an error under FASTPSO_WERROR).
// - Arithmetic uses the vector extension's built-in operators, which take a
//   scalar operand as a broadcast; a lane value starts from a constant as
//   `V{} + c`. Calling an always_inline AVX2 intrinsic from baseline code
//   would not compile.
// - Everything else goes lane by lane (apply) or through dmath's batch
//   cos_n/sin_n (map, trig).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "common/cpu.h"
#include "common/dmath.h"

namespace fastpso::problems::lanes {

/// One particle row.
template <typename T>
struct Row {
  using Lane = double;
  const T* x;
  void load(int i, double& v) const { v = static_cast<double>(x[i]); }
};

#ifdef FASTPSO_X86_SIMD
/// Four doubles in one vector (GCC/Clang vector extension).
using Double4 = double __attribute__((vector_size(32)));

/// Four float rows `stride` apart, row r in lane r.
struct Rows4 {
  using Lane = Double4;
  const float* x;
  std::size_t stride;
  void load(int i, Double4& v) const {
    const float* column = x + i;
    v = Double4{column[0], column[stride], column[2 * stride],
                column[3 * stride]};
  }
};
#endif

/// A problem whose formula is written as eval_lanes over these row views.
template <typename P>
concept LaneFormula = requires(const P& p, Row<float> row, double& f) {
  p.eval_lanes(row, 1, f);
};

/// Doubles per lane value.
template <typename V>
inline constexpr int kWidth = static_cast<int>(sizeof(V) / sizeof(double));

/// v = fn(v) on every lane.
template <typename V, typename Fn>
void apply(V& v, const Fn& fn) {
  double lane[kWidth<V>];
  std::memcpy(lane, &v, sizeof v);
  for (double& value : lane) {
    value = fn(value);
  }
  std::memcpy(&v, lane, sizeof v);
}

enum Trig { kCos, kSin };

/// dmath's batch form of F: groups of eight doubles (AVX-512F) or four
/// (AVX2) per step, with the scalar form's bits.
template <Trig F>
void trig_n(double* values, int n) {
  (F == kCos ? dmath::cos_n : dmath::sin_n)(values, values,
                                            static_cast<std::size_t>(n));
}

/// v = cos(v) or sin(v) on every lane, in place.
template <Trig F, typename V>
void trig(V& v) {
  double lane[kWidth<V>];
  std::memcpy(lane, &v, sizeof v);
  trig_n<F>(lane, kWidth<V>);
  std::memcpy(&v, lane, sizeof v);
}

/// Calls use(i, x_i) for the columns i in [0, n), in index order.
template <typename Rows, typename Use>
void each(const Rows& x, int n, const Use& use) {
  for (int i = 0; i < n; ++i) {
    typename Rows::Lane xi{};
    x.load(i, xi);
    use(i, xi);
  }
}

/// Calls use(i, x_i, F(a_i)) for the columns i in [0, n), in index order,
/// where arg(i, a) turns a = x_i into the argument a_i in place. Arguments
/// are staged kChunk columns at a time, one batch call per chunk: four rows
/// put two columns' lanes in one AVX-512F group or one column's in an AVX2
/// group. Each value is the scalar form's bits, so accumulating in index
/// order keeps every result bit.
inline constexpr int kChunk = 64;
template <Trig F, typename Rows, typename Arg, typename Use>
void map(const Rows& x, int n, const Arg& arg, const Use& use) {
  using V = typename Rows::Lane;
  constexpr int kW = kWidth<V>;
  // Every entry read below is written first in the same chunk.
  double buf[kChunk * kW];
  for (int base = 0; base < n; base += kChunk) {
    const int len = std::min(kChunk, n - base);
    for (int j = 0; j < len; ++j) {
      V a{};
      x.load(base + j, a);
      arg(base + j, a);
      std::memcpy(buf + j * kW, &a, sizeof a);
    }
    trig_n<F>(buf, len * kW);
    for (int j = 0; j < len; ++j) {
      V xi{};
      V t{};
      x.load(base + j, xi);
      std::memcpy(&t, buf + j * kW, sizeof t);
      use(base + j, xi, t);
    }
  }
}

#ifdef FASTPSO_X86_SIMD
/// out[i] = (float)problem's formula on row i, for the rows [0, n) of X,
/// n a multiple of 4, four rows per step. flatten inlines the formula, the
/// row view and the lane helpers into this AVX2 function.
template <typename P>
__attribute__((target("avx2"), flatten)) void rows4_avx2(const P& problem,
                                                        const float* X, int n,
                                                        int d, float* out) {
  const auto stride = static_cast<std::size_t>(d);
  for (int i = 0; i < n; i += 4) {
    Double4 f{};
    problem.eval_lanes(Rows4{X + static_cast<std::size_t>(i) * stride, stride},
                       d, f);
    for (int j = 0; j < 4; ++j) {
      out[i + j] = static_cast<float>(f[j]);
    }
  }
}
#endif

/// Evaluates the first n - n % 4 rows of X four at a time when the CPU has
/// AVX2 (checked once); returns how many rows it evaluated (0 otherwise).
template <typename P>
int eval_rows4([[maybe_unused]] const P& problem,
               [[maybe_unused]] const float* X, int n,
               [[maybe_unused]] int d, [[maybe_unused]] float* out) {
#ifdef FASTPSO_X86_SIMD
  if (n >= 4 && cpu_has_avx2()) {
    const int rows = n - n % 4;
    rows4_avx2(problem, X, rows, d, out);
    return rows;
  }
#endif
  return 0;
}

}  // namespace fastpso::problems::lanes
