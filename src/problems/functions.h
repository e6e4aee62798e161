// The built-in benchmark functions (paper Section 3.2 mentions Sphere,
// Griewank and Easom as built-ins; Section 4.1 uses the first three below
// plus ThreadConf). Domains follow the paper; formulas follow Molga &
// Smutnicki, "Test functions for optimization needs" (2005). Each formula
// is written once, as eval_lanes over the row views of problems/lanes.h: one
// row per lane, a double for one row or a four-double vector for four.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <numbers>

#include "common/dmath.h"
#include "problems/lanes.h"
#include "problems/problem.h"

namespace fastpso::problems {

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

  template <typename Rows>
  void eval_lanes(const Rows& x, int dim, typename Rows::Lane& f) const {
    using V = typename Rows::Lane;
    V acc{};
    lanes::each(x, dim, [&](int, const V& xi) { acc += xi * xi; });
    f = acc;
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

  template <typename Rows>
  void eval_lanes(const Rows& x, int dim, typename Rows::Lane& f) const {
    using V = typename Rows::Lane;
    V sum{};
    V prod = V{} + 1.0;
    const double* roots = root_table();
    lanes::map<lanes::kCos>(
        x, dim,
        [&](int i, V& a) {
          const double root = i < kRootTableSize
                                  ? roots[i]
                                  : std::sqrt(static_cast<double>(i + 1));
          a = a / root;
        },
        [&](int, const V& xi, const V& c) {
          sum += xi * xi;
          prod *= c;
        });
    f = sum / 4000.0 - prod + 1.0;
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

  template <typename Rows>
  void eval_lanes(const Rows& x, int dim, typename Rows::Lane& f) const {
    using V = typename Rows::Lane;
    V prod = V{} + 1.0;
    V sq{};
    lanes::map<lanes::kCos>(
        x, dim, [](int, V&) {},
        [&](int, const V& xi, const V& c) {
          prod *= c * c;
          const V delta = xi - std::numbers::pi;
          sq += delta * delta;
        });
    const double sign = dim % 2 == 0 ? -1.0 : 1.0;
    V e = -sq;
    lanes::apply(e, dmath::exp);
    f = sign * prod * e;
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

  template <typename Rows>
  void eval_lanes(const Rows& x, int dim, typename Rows::Lane& f) const {
    using V = typename Rows::Lane;
    V acc = V{} + 10.0 * dim;
    lanes::map<lanes::kCos>(
        x, dim, [](int, V& a) { a = 2.0 * std::numbers::pi * a; },
        [&](int, const V& xi, const V& c) { acc += xi * xi - 10.0 * c; });
    f = acc;
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

  template <typename Rows>
  void eval_lanes(const Rows& x, int dim, typename Rows::Lane& f) const {
    using V = typename Rows::Lane;
    V acc{};
    lanes::each(x, dim - 1, [&](int i, const V& xi) {
      V xn{};
      x.load(i + 1, xn);
      const V a = xn - xi * xi;
      const V b = 1.0 - xi;
      acc += 100.0 * a * a + b * b;
    });
    f = acc;
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

  template <typename Rows>
  void eval_lanes(const Rows& x, int dim, typename Rows::Lane& f) const {
    using V = typename Rows::Lane;
    V sum_sq{};
    V sum_cos{};
    lanes::map<lanes::kCos>(
        x, dim, [](int, V& a) { a = 2.0 * std::numbers::pi * a; },
        [&](int, const V& xi, const V& c) {
          sum_sq += xi * xi;
          sum_cos += c;
        });
    const double inv_d = 1.0 / dim;
    V spread = sum_sq * inv_d;
    lanes::apply(spread,
                 [](double v) { return dmath::exp(-0.2 * std::sqrt(v)); });
    V ripple = sum_cos * inv_d;
    lanes::apply(ripple, dmath::exp);
    f = -20.0 * spread - ripple + 20.0 + std::numbers::e;
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

  template <typename Rows>
  void eval_lanes(const Rows& x, int dim, typename Rows::Lane& f) const {
    using V = typename Rows::Lane;
    V acc = V{} + 418.9828872724338 * dim;
    lanes::map<lanes::kSin>(
        x, dim,
        [](int, V& a) {
          lanes::apply(a, [](double v) { return std::sqrt(std::abs(v)); });
        },
        [&](int, const V& xi, const V& s) { acc -= xi * s; });
    f = acc;
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

  template <typename Rows>
  void eval_lanes(const Rows& x, int dim, typename Rows::Lane& f) const {
    using V = typename Rows::Lane;
    V sum_sq{};
    V sum_lin{};
    lanes::each(x, dim, [&](int i, const V& xi) {
      sum_sq += xi * xi;
      sum_lin += 0.5 * (i + 1) * xi;
    });
    const V s2 = sum_lin * sum_lin;
    f = sum_sq + s2 + s2 * s2;
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

  template <typename Rows>
  void eval_lanes(const Rows& x, int dim, typename Rows::Lane& f) const {
    using V = typename Rows::Lane;
    // w = 1 + (x - 1) / 4, in place.
    const auto to_w = [](V& v) { v = 1.0 + (v - 1.0) / 4.0; };
    V s0{};
    x.load(0, s0);
    to_w(s0);
    s0 = std::numbers::pi * s0;
    lanes::trig<lanes::kSin>(s0);
    V acc = s0 * s0;
    lanes::map<lanes::kSin>(
        x, dim - 1,
        [&](int, V& a) {
          to_w(a);
          a = std::numbers::pi * a + 1.0;
        },
        [&](int, const V& xi, const V& s) {
          V wi = xi;
          to_w(wi);
          acc += (wi - 1.0) * (wi - 1.0) * (1.0 + 10.0 * s * s);
        });
    V wd{};
    x.load(dim - 1, wd);
    to_w(wd);
    V sd = 2.0 * std::numbers::pi * wd;
    lanes::trig<lanes::kSin>(sd);
    acc += (wd - 1.0) * (wd - 1.0) * (1.0 + sd * sd);
    f = acc;
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

  template <typename Rows>
  void eval_lanes(const Rows& x, int dim, typename Rows::Lane& f) const {
    using V = typename Rows::Lane;
    V acc{};
    lanes::each(x, dim, [&](int, const V& xi) {
      const V sq = xi * xi;
      acc += sq * sq - 16.0 * sq + 5.0 * xi;
    });
    f = 0.5 * acc;
  }

 private:
  std::string name_ = "styblinski_tang";
};

}  // namespace fastpso::problems
