// Objective ("swarm evaluation function") abstraction for the optimizer.
//
// The paper's Step (ii) supports customized evaluation functions through a
// CUDA kernel schema (the `evaluation_kernel` template in Section 3.2).
// Built-in problems and user-defined lambdas go through the same schema —
// see core/eval_schema.h for the kernel itself.
#pragma once

#include <functional>
#include <string>
#include <utility>

#include "problems/problem.h"

namespace fastpso::core {

/// A minimization objective consumable by the optimizer: a per-particle
/// function plus domain and cost metadata.
struct Objective {
  std::string name;

  /// Evaluates one particle: `fn(x, dim)` with x pointing at `dim` floats.
  std::function<double(const float* x, int dim)> fn;

  /// Optional batched form: `batch_fn(X, n, dim, out)` evaluates `n`
  /// particles stored row-major in X, writing `out[i] =
  /// (float)fn(X + i*dim, dim)` with a devirtualized inner loop (one
  /// dispatch per batch). Null for custom lambda objectives; callers fall
  /// back to the per-particle fn.
  ///
  /// Concurrency contract: batch_fn must be safe to call concurrently on
  /// disjoint row ranges (X + b*dim, e - b rows, out + b). Large batches
  /// are split into contiguous row ranges that run on several host threads
  /// at once (core/eval_schema.h, fastpso-omp), so it must not write shared
  /// state, and out[i] must depend only on row i.
  std::function<void(const float* X, int n, int dim, float* out)> batch_fn;

  /// Search domain (positions initialized uniformly in [lower, upper]).
  double lower = -1.0;
  double upper = 1.0;

  /// Operation counts for the performance model.
  problems::EvalCost cost;

  /// Known optimum (used only for error reporting; NaN when unknown).
  double optimum = 0.0;
  bool has_optimum = false;
};

/// Wraps a built-in Problem as an Objective. The problem must outlive the
/// objective (the lambda captures a reference).
Objective objective_from_problem(const problems::Problem& problem, int dim);

/// Builds a custom objective from a user lambda — the "customized swarm
/// evaluation function" schema entry point.
template <typename Fn>
Objective make_objective(std::string name, double lower, double upper,
                         Fn&& fn,
                         problems::EvalCost cost = problems::EvalCost{}) {
  Objective objective;
  objective.name = std::move(name);
  objective.lower = lower;
  objective.upper = upper;
  objective.fn = std::forward<Fn>(fn);
  objective.cost = cost;
  return objective;
}

}  // namespace fastpso::core
