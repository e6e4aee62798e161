// The built-in benchmark functions (paper Section 3.2 mentions Sphere,
// Griewank and Easom as built-ins; Section 4.1 uses the first three below
// plus ThreadConf). Domains follow the paper; formulas follow Molga &
// Smutnicki, "Test functions for optimization needs" (2005).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <numbers>

#include "common/dmath.h"
#include "problems/problem.h"

namespace fastpso::problems {

namespace detail {

/// Calls use(i, f(arg(i))) for i in [0, n) in index order, where `f_n` is a
/// dmath batch function (dmath::cos_n, dmath::sin_n). Arguments are staged
/// kChunk at a time, one batch call per chunk; each value is the scalar
/// form's bits, so accumulating in index order keeps every result bit.
inline constexpr int kChunk = 64;
template <typename Arg, typename Use>
void map_chunked(void (*f_n)(const double*, double*, std::size_t), int n,
                 Arg arg, Use use) {
  // Every entry read below is written first in the same chunk.
  double buf[kChunk];
  for (int base = 0; base < n; base += kChunk) {
    const int len = std::min(kChunk, n - base);
    for (int j = 0; j < len; ++j) {
      buf[j] = arg(base + j);
    }
    f_n(buf, buf, static_cast<std::size_t>(len));
    for (int j = 0; j < len; ++j) {
      use(base + j, buf[j]);
    }
  }
}

}  // namespace detail

/// f(x) = sum x_i^2, domain (-5.12, 5.12), f* = 0 at x = 0.
class Sphere final : public ProblemBase<Sphere> {
 public:
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] double lower_bound() const override { return -5.12; }
  [[nodiscard]] double upper_bound() const override { return 5.12; }
  [[nodiscard]] double optimum_value(int) const override { return 0.0; }
  [[nodiscard]] EvalCost cost() const override {
    return {.flops_per_dim = 2.0, .transcendentals_per_dim = 0.0,
            .flops_fixed = 0.0,
            .vector_passes = 2.0};
  }

  template <typename T>
  [[nodiscard]] double eval_impl(const T* x, int dim) const {
    double acc = 0.0;
    for (int i = 0; i < dim; ++i) {
      const double xi = static_cast<double>(x[i]);
      acc += xi * xi;
    }
    return acc;
  }

 private:
  std::string name_ = "sphere";
};

/// f(x) = sum x_i^2/4000 - prod cos(x_i/sqrt(i+1)) + 1, domain (-600, 600),
/// f* = 0 at x = 0.
class Griewank final : public ProblemBase<Griewank> {
 public:
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] double lower_bound() const override { return -600.0; }
  [[nodiscard]] double upper_bound() const override { return 600.0; }
  [[nodiscard]] double optimum_value(int) const override { return 0.0; }
  [[nodiscard]] EvalCost cost() const override {
    return {.flops_per_dim = 4.0, .transcendentals_per_dim = 2.0,
            .flops_fixed = 2.0,
            .vector_passes = 6.0};
  }

  template <typename T>
  [[nodiscard]] double eval_impl(const T* x, int dim) const {
    double sum = 0.0;
    double prod = 1.0;
    const double* roots = root_table();
    detail::map_chunked(
        dmath::cos_n, dim,
        [&](int i) {
          const double root = i < kRootTableSize
                                  ? roots[i]
                                  : std::sqrt(static_cast<double>(i + 1));
          return static_cast<double>(x[i]) / root;
        },
        [&](int i, double c) {
          const double xi = static_cast<double>(x[i]);
          sum += xi * xi;
          prod *= c;
        });
    return sum / 4000.0 - prod + 1.0;
  }

 private:
  /// sqrt(i + 1) for the first kRootTableSize dimensions, computed once per
  /// process instead of once per dimension per evaluation. The entries are
  /// the same std::sqrt values, so results keep every bit.
  static constexpr int kRootTableSize = 1024;
  static const double* root_table() {
    static const std::array<double, kRootTableSize> table = [] {
      std::array<double, kRootTableSize> roots{};
      for (int i = 0; i < kRootTableSize; ++i) {
        roots[static_cast<std::size_t>(i)] =
            std::sqrt(static_cast<double>(i + 1));
      }
      return roots;
    }();
    return table.data();
  }

  std::string name_ = "griewank";
};

/// Generalized Easom (paper Section 4.1):
/// f(x) = -(-1)^d (prod cos^2 x_i) exp[-sum (x_i - pi)^2],
/// domain (-2pi, 2pi). For even d the true minimum is -1 at x = pi, but
/// its basin has negligible measure beyond a few dimensions and the
/// landscape is numerically 0 almost everywhere; the paper's Table 2
/// reports error 0.00 for every implementation, i.e. it references the
/// reachable plateau. We follow that convention for d > 2 and use the
/// classic f* = -1 for d <= 2, where the basin is findable.
class Easom final : public ProblemBase<Easom> {
 public:
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] double lower_bound() const override {
    return -2.0 * std::numbers::pi;
  }
  [[nodiscard]] double upper_bound() const override {
    return 2.0 * std::numbers::pi;
  }
  [[nodiscard]] double optimum_value(int dim) const override {
    if (dim <= 2) {
      return dim % 2 == 0 ? -1.0 : 0.0;
    }
    return 0.0;  // paper convention (see class comment)
  }
  [[nodiscard]] EvalCost cost() const override {
    return {.flops_per_dim = 4.0, .transcendentals_per_dim = 1.0,
            .flops_fixed = 10.0,
            .vector_passes = 8.0};  // fixed: the final exp
  }

  template <typename T>
  [[nodiscard]] double eval_impl(const T* x, int dim) const {
    double prod = 1.0;
    double sq = 0.0;
    detail::map_chunked(
        dmath::cos_n, dim, [&](int i) { return static_cast<double>(x[i]); },
        [&](int i, double c) {
          prod *= c * c;
          const double delta = static_cast<double>(x[i]) - std::numbers::pi;
          sq += delta * delta;
        });
    const double sign = dim % 2 == 0 ? -1.0 : 1.0;
    return sign * prod * dmath::exp(-sq);
  }

 private:
  std::string name_ = "easom";
};

/// f(x) = 10 d + sum [x_i^2 - 10 cos(2 pi x_i)], domain (-5.12, 5.12),
/// f* = 0 at x = 0.
class Rastrigin final : public ProblemBase<Rastrigin> {
 public:
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] double lower_bound() const override { return -5.12; }
  [[nodiscard]] double upper_bound() const override { return 5.12; }
  [[nodiscard]] double optimum_value(int) const override { return 0.0; }
  [[nodiscard]] EvalCost cost() const override {
    return {.flops_per_dim = 5.0, .transcendentals_per_dim = 1.0,
            .flops_fixed = 1.0,
            .vector_passes = 5.0};
  }

  template <typename T>
  [[nodiscard]] double eval_impl(const T* x, int dim) const {
    double acc = 10.0 * dim;
    detail::map_chunked(
        dmath::cos_n, dim,
        [&](int i) {
          return 2.0 * std::numbers::pi * static_cast<double>(x[i]);
        },
        [&](int i, double c) {
          const double xi = static_cast<double>(x[i]);
          acc += xi * xi - 10.0 * c;
        });
    return acc;
  }

 private:
  std::string name_ = "rastrigin";
};

/// f(x) = sum [100 (x_{i+1} - x_i^2)^2 + (1 - x_i)^2], domain (-2.048,
/// 2.048), f* = 0 at x = 1.
class Rosenbrock final : public ProblemBase<Rosenbrock> {
 public:
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] double lower_bound() const override { return -2.048; }
  [[nodiscard]] double upper_bound() const override { return 2.048; }
  [[nodiscard]] double optimum_value(int) const override { return 0.0; }
  [[nodiscard]] EvalCost cost() const override {
    return {.flops_per_dim = 8.0, .transcendentals_per_dim = 0.0,
            .flops_fixed = 0.0,
            .vector_passes = 6.0};
  }

  template <typename T>
  [[nodiscard]] double eval_impl(const T* x, int dim) const {
    double acc = 0.0;
    for (int i = 0; i + 1 < dim; ++i) {
      const double xi = static_cast<double>(x[i]);
      const double xn = static_cast<double>(x[i + 1]);
      const double a = xn - xi * xi;
      const double b = 1.0 - xi;
      acc += 100.0 * a * a + b * b;
    }
    return acc;
  }

 private:
  std::string name_ = "rosenbrock";
};

/// f(x) = -20 exp(-0.2 sqrt(mean x_i^2)) - exp(mean cos(2 pi x_i)) + 20 + e,
/// domain (-32.768, 32.768), f* = 0 at x = 0.
class Ackley final : public ProblemBase<Ackley> {
 public:
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] double lower_bound() const override { return -32.768; }
  [[nodiscard]] double upper_bound() const override { return 32.768; }
  [[nodiscard]] double optimum_value(int) const override { return 0.0; }
  [[nodiscard]] EvalCost cost() const override {
    return {.flops_per_dim = 4.0, .transcendentals_per_dim = 1.0,
            .flops_fixed = 20.0,
            .vector_passes = 7.0};
  }

  template <typename T>
  [[nodiscard]] double eval_impl(const T* x, int dim) const {
    double sum_sq = 0.0;
    double sum_cos = 0.0;
    detail::map_chunked(
        dmath::cos_n, dim,
        [&](int i) {
          return 2.0 * std::numbers::pi * static_cast<double>(x[i]);
        },
        [&](int i, double c) {
          const double xi = static_cast<double>(x[i]);
          sum_sq += xi * xi;
          sum_cos += c;
        });
    const double inv_d = 1.0 / dim;
    return -20.0 * dmath::exp(-0.2 * std::sqrt(sum_sq * inv_d)) -
           dmath::exp(sum_cos * inv_d) + 20.0 + std::numbers::e;
  }

 private:
  std::string name_ = "ackley";
};

/// Schwefel 2.26: f(x) = 418.9829 d - sum x_i sin(sqrt(|x_i|)),
/// domain (-500, 500), f* ~= 0 at x_i = 420.9687.
class Schwefel final : public ProblemBase<Schwefel> {
 public:
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] double lower_bound() const override { return -500.0; }
  [[nodiscard]] double upper_bound() const override { return 500.0; }
  [[nodiscard]] double optimum_value(int) const override { return 0.0; }
  [[nodiscard]] EvalCost cost() const override {
    return {.flops_per_dim = 4.0, .transcendentals_per_dim = 2.0,
            .flops_fixed = 2.0,
            .vector_passes = 5.0};
  }

  template <typename T>
  [[nodiscard]] double eval_impl(const T* x, int dim) const {
    double acc = 418.9828872724338 * dim;
    detail::map_chunked(
        dmath::sin_n, dim,
        [&](int i) { return std::sqrt(std::abs(static_cast<double>(x[i]))); },
        [&](int i, double s) { acc -= static_cast<double>(x[i]) * s; });
    return acc;
  }

 private:
  std::string name_ = "schwefel";
};

/// f(x) = sum x_i^2 + (sum 0.5 i x_i)^2 + (sum 0.5 i x_i)^4,
/// domain (-5, 10), f* = 0 at x = 0.
class Zakharov final : public ProblemBase<Zakharov> {
 public:
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] double lower_bound() const override { return -5.0; }
  [[nodiscard]] double upper_bound() const override { return 10.0; }
  [[nodiscard]] double optimum_value(int) const override { return 0.0; }
  [[nodiscard]] EvalCost cost() const override {
    return {.flops_per_dim = 5.0, .transcendentals_per_dim = 0.0,
            .flops_fixed = 4.0,
            .vector_passes = 5.0};
  }

  template <typename T>
  [[nodiscard]] double eval_impl(const T* x, int dim) const {
    double sum_sq = 0.0;
    double sum_lin = 0.0;
    for (int i = 0; i < dim; ++i) {
      const double xi = static_cast<double>(x[i]);
      sum_sq += xi * xi;
      sum_lin += 0.5 * (i + 1) * xi;
    }
    const double s2 = sum_lin * sum_lin;
    return sum_sq + s2 + s2 * s2;
  }

 private:
  std::string name_ = "zakharov";
};

/// Levy function, domain (-10, 10), f* = 0 at x = 1.
class Levy final : public ProblemBase<Levy> {
 public:
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] double lower_bound() const override { return -10.0; }
  [[nodiscard]] double upper_bound() const override { return 10.0; }
  [[nodiscard]] double optimum_value(int) const override { return 0.0; }
  [[nodiscard]] EvalCost cost() const override {
    return {.flops_per_dim = 9.0, .transcendentals_per_dim = 1.0,
            .flops_fixed = 8.0,
            .vector_passes = 8.0};
  }

  template <typename T>
  [[nodiscard]] double eval_impl(const T* x, int dim) const {
    auto w = [&](int i) {
      return 1.0 + (static_cast<double>(x[i]) - 1.0) / 4.0;
    };
    const double s0 = dmath::sin(std::numbers::pi * w(0));
    double acc = s0 * s0;
    detail::map_chunked(
        dmath::sin_n, dim - 1,
        [&](int i) { return std::numbers::pi * w(i) + 1.0; },
        [&](int i, double s) {
          const double wi = w(i);
          acc += (wi - 1.0) * (wi - 1.0) * (1.0 + 10.0 * s * s);
        });
    const double wd = w(dim - 1);
    const double sd = dmath::sin(2.0 * std::numbers::pi * wd);
    acc += (wd - 1.0) * (wd - 1.0) * (1.0 + sd * sd);
    return acc;
  }

 private:
  std::string name_ = "levy";
};

/// Styblinski–Tang: f(x) = 0.5 sum (x_i^4 - 16 x_i^2 + 5 x_i),
/// domain (-5, 5), f* = -39.16599 d at x_i = -2.903534.
class StyblinskiTang final : public ProblemBase<StyblinskiTang> {
 public:
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] double lower_bound() const override { return -5.0; }
  [[nodiscard]] double upper_bound() const override { return 5.0; }
  [[nodiscard]] double optimum_value(int dim) const override {
    return -39.16616570377142 * dim;
  }
  [[nodiscard]] EvalCost cost() const override {
    return {.flops_per_dim = 7.0, .transcendentals_per_dim = 0.0,
            .flops_fixed = 1.0,
            .vector_passes = 5.0};
  }

  template <typename T>
  [[nodiscard]] double eval_impl(const T* x, int dim) const {
    double acc = 0.0;
    for (int i = 0; i < dim; ++i) {
      const double xi = static_cast<double>(x[i]);
      const double sq = xi * xi;
      acc += sq * sq - 16.0 * sq + 5.0 * xi;
    }
    return 0.5 * acc;
  }

 private:
  std::string name_ = "styblinski_tang";
};

}  // namespace fastpso::problems
