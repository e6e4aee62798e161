// Optimization problem interface and the paper's built-in test functions.
//
// A Problem supplies: the search domain, the known global optimum (for the
// Table 2 error metric), scalar evaluation in both float32 (GPU-side
// precision) and float64 (the Python-library baselines), and an EvalCost
// declaration so the performance model can account the evaluation kernels of
// Step (ii).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "problems/lanes.h"

namespace fastpso::problems {

/// Per-evaluation operation counts for the performance model.
struct EvalCost {
  double flops_per_dim = 2.0;          ///< ordinary flops per dimension
  double transcendentals_per_dim = 0;  ///< sin/cos/exp/log/sqrt per dimension
  double flops_fixed = 1.0;            ///< per-evaluation fixed work
  /// Whole-array passes a vectorized (NumPy-style) implementation of this
  /// objective makes over the (n, d) position matrix; drives the
  /// Python-library baselines' cost model.
  double vector_passes = 3.0;

  [[nodiscard]] double flops(int dim) const {
    return flops_fixed + flops_per_dim * dim;
  }
  [[nodiscard]] double transcendentals(int dim) const {
    return transcendentals_per_dim * dim;
  }
};

/// Abstract optimization problem (minimization).
class Problem {
 public:
  virtual ~Problem() = default;

  [[nodiscard]] virtual const std::string& name() const = 0;

  /// Search domain: positions are initialized in [lower, upper]^d.
  [[nodiscard]] virtual double lower_bound() const = 0;
  [[nodiscard]] virtual double upper_bound() const = 0;

  /// Known global minimum value for dimension `dim`; only meaningful when
  /// has_known_optimum() is true.
  [[nodiscard]] virtual double optimum_value(int dim) const = 0;
  [[nodiscard]] virtual bool has_known_optimum() const { return true; }

  /// Objective value at `x` (float32 state, accumulate in double).
  [[nodiscard]] virtual double eval_f32(const float* x, int dim) const = 0;
  /// Objective value at `x` (float64 state).
  [[nodiscard]] virtual double eval_f64(const double* x, int dim) const = 0;

  /// Evaluates `n` particles stored row-major in `X` (n x d) into `out`.
  /// Semantically `out[i] = (float)eval_f32(X + i*d, d)` — the batched form
  /// exists so implementations can devirtualize the inner loop (one virtual
  /// dispatch per batch instead of one per particle).
  virtual void eval_batch(const float* X, int n, int d, float* out) const {
    for (int i = 0; i < n; ++i) {
      out[i] = static_cast<float>(eval_f32(X + static_cast<std::size_t>(i) * d,
                                           d));
    }
  }

  /// Operation counts for one evaluation.
  [[nodiscard]] virtual EvalCost cost() const = 0;

  // Span conveniences.
  [[nodiscard]] double evaluate(std::span<const float> x) const {
    return eval_f32(x.data(), static_cast<int>(x.size()));
  }
  [[nodiscard]] double evaluate(std::span<const double> x) const {
    return eval_f64(x.data(), static_cast<int>(x.size()));
  }
};

/// CRTP helper so each concrete problem writes its formula once, as either
/// - `template <typename Rows> void eval_lanes(const Rows& x, int dim,
///   typename Rows::Lane& f) const` over the row views of problems/lanes.h
///   (the built-ins): eval_batch then evaluates four rows per AVX2 vector;
/// - or `template <typename T> double eval_impl(const T* x, int dim) const`,
///   evaluated one row at a time.
template <typename Derived>
class ProblemBase : public Problem {
 public:
  [[nodiscard]] double eval_f32(const float* x, int dim) const final {
    return eval_row(x, dim);
  }
  [[nodiscard]] double eval_f64(const double* x, int dim) const final {
    return eval_row(x, dim);
  }
  /// Devirtualized batch loop: the concrete formula is known at compile
  /// time here, so the whole batch costs one virtual call. A lane formula
  /// takes the rows four at a time where the CPU has AVX2; the rest go
  /// through eval_row, with the same bits.
  void eval_batch(const float* X, int n, int d, float* out) const final {
    int done = 0;
    if constexpr (lanes::LaneFormula<Derived>) {
      done = lanes::eval_rows4(self(), X, n, d, out);
    }
    for (int i = done; i < n; ++i) {
      out[i] = static_cast<float>(
          eval_row(X + static_cast<std::size_t>(i) * d, d));
    }
  }

 private:
  const Derived& self() const { return static_cast<const Derived&>(*this); }

  template <typename T>
  double eval_row(const T* x, int dim) const {
    if constexpr (lanes::LaneFormula<Derived>) {
      double f = 0.0;
      self().eval_lanes(lanes::Row<T>{x}, dim, f);
      return f;
    } else {
      return self().template eval_impl<T>(x, dim);
    }
  }
};

/// Factory: creates a built-in problem by name ("sphere", "griewank",
/// "easom", "rastrigin", "rosenbrock", "ackley", "schwefel", "zakharov",
/// "levy", "styblinski_tang"). Throws CheckError on unknown names.
std::unique_ptr<Problem> make_problem(const std::string& name);

/// Names accepted by make_problem, in presentation order.
std::vector<std::string> builtin_problem_names();

/// The paper's four evaluation problems (Section 4.1); "threadconf" is
/// created by the tgbm module, the other three by make_problem.
std::vector<std::string> paper_problem_names();

}  // namespace fastpso::problems
