// pyswarms.single.GlobalBestPSO re-implementation (Miranda 2018), following
// the library's default behaviour as configured in the paper's experiments:
//
//   * NumPy-vectorized update over the whole (n, d) swarm, one temporary
//     per operator (mini-ndarray + CostLedger model the CPython side);
//   * NO velocity clamping (pyswarms' default VelocityHandler is
//     "unmodified") — with the paper's omega=0.9, c1=c2=2 the velocities
//     diverge, which is exactly why pyswarms' Table 2 errors are O(10^3);
//   * "periodic" position bound handling: out-of-domain coordinates wrap
//     around the domain;
//   * float64 throughout (NumPy default dtype).
//
// Every numeric result is computed for real; modeled time comes from the
// recorded NumPy execution trace (see baselines/cost_model.h).

#include <cmath>
#include <limits>
#include <vector>

#include "baselines/baselines.h"
#include "baselines/ndarray.h"
#include "common/stopwatch.h"
#include "rng/xoshiro.h"
#include "vgpu/prof/prof.h"

namespace fastpso::baselines {
namespace {

/// Charges the ledger for one vectorized objective evaluation over (n, d):
/// `passes` whole-array traversals, as the NumPy expression would make.
void charge_vectorized_eval(CostLedger& ledger, std::size_t n, std::size_t d,
                            double passes) {
  const double matrix_bytes = static_cast<double>(n * d) * sizeof(double);
  for (int pass = 0; pass < static_cast<int>(passes + 0.5); ++pass) {
    ledger.record_op(matrix_bytes, matrix_bytes, 1, matrix_bytes);
  }
}

}  // namespace

core::Result run_pyswarms_like(const core::Objective& objective,
                               const core::PsoParams& params) {
  params.validate();
  const std::size_t n = static_cast<std::size_t>(params.particles);
  const std::size_t d = static_cast<std::size_t>(params.dim);
  const double lo = objective.lower;
  const double hi = objective.upper;

  CostLedger ledger;
  rng::Xoshiro256 rng(params.seed + 0x9E3779B9u);
  auto unit = [&rng]() { return rng.next_unit(); };

  Stopwatch watch;
  TimeBreakdown wall;
  TimeBreakdown modeled;
  vgpu::prof::Profile profile;
  const auto account = [&](const char* phase, const char* label,
                           double seconds) {
    modeled.add(phase, seconds);
    if (vgpu::prof::active()) {
      profile.add_host(label, phase, seconds);
    }
  };

  // ---- init (pyswarms generate_swarm / generate_velocity) ---------------
  NdArray pos(n, d);
  NdArray vel(n, d);
  NdArray pbest_pos(n, d);
  std::vector<double> pbest_cost(n, std::numeric_limits<double>::infinity());
  std::vector<double> current_cost(n, 0.0);
  double gbest_cost = std::numeric_limits<double>::infinity();
  std::vector<double> gbest_pos(d, 0.0);
  {
    ScopedTimer timer(wall, "init");
    fill_uniform(ledger, pos, lo, hi, unit);
    fill_uniform(ledger, vel, -(hi - lo), hi - lo, unit);
    pbest_pos = pos;
    ledger.record_op(pos.bytes(), pos.bytes(), 1, pos.bytes());  // copy
    account("init", "pyswarms/generate_swarm", ledger.seconds());
    ledger.reset();
  }

  for (int iter = 0; iter < params.max_iter; ++iter) {
    // ---- compute_objective_function (vectorized) -----------------------
    {
      ScopedTimer timer(wall, "eval");
      // Real values (the Objective carries a float32 functor for the GPU
      // path; evaluate via a narrow-copy row), NumPy-modeled cost.
      std::vector<float> row32(d);
      for (std::size_t i = 0; i < n; ++i) {
        const double* row = pos.data() + i * d;
        for (std::size_t j = 0; j < d; ++j) {
          row32[j] = static_cast<float>(row[j]);
        }
        current_cost[i] = objective.fn(row32.data(), static_cast<int>(d));
      }
      charge_vectorized_eval(ledger, n, d, objective.cost.vector_passes);
      account("eval", "pyswarms/objective", ledger.seconds());
      ledger.reset();
    }

    // ---- pbest update (compute_pbest: np.where over costs + positions) --
    {
      ScopedTimer timer(wall, "pbest");
      for (std::size_t i = 0; i < n; ++i) {
        if (current_cost[i] < pbest_cost[i]) {
          pbest_cost[i] = current_cost[i];
          for (std::size_t j = 0; j < d; ++j) {
            pbest_pos(i, j) = pos(i, j);
          }
        }
      }
      // np.where on the (n,) mask + the (n, d) positions: 3 passes.
      ledger.record_op(2.0 * n * sizeof(double), n * sizeof(double), 1,
                       n * sizeof(double));
      ledger.record_op(2.0 * pos.bytes(), pos.bytes(), 1, pos.bytes());
      account("pbest", "pyswarms/compute_pbest", ledger.seconds());
      ledger.reset();
    }

    // ---- gbest update (compute_gbest: np.min / np.argmin) ----------------
    {
      ScopedTimer timer(wall, "gbest");
      const std::size_t best = argmin(ledger, pbest_cost);
      if (pbest_cost[best] < gbest_cost) {
        gbest_cost = pbest_cost[best];
        for (std::size_t j = 0; j < d; ++j) {
          gbest_pos[j] = pbest_pos(best, j);
        }
      }
      account("gbest", "pyswarms/compute_gbest", ledger.seconds());
      ledger.reset();
    }

    // ---- compute_velocity + compute_position (vectorized, no clamp) ------
    {
      ScopedTimer timer(wall, "swarm");
      NdArray r1(n, d);
      NdArray r2(n, d);
      fill_uniform(ledger, r1, 0.0, 1.0, unit);
      fill_uniform(ledger, r2, 0.0, 1.0, unit);
      // cognitive = c1 * r1 * (pbest_pos - pos)
      NdArray cognitive =
          scale(ledger, mul(ledger, r1, sub(ledger, pbest_pos, pos)),
                params.c1);
      // social = c2 * r2 * (gbest_pos - pos)
      NdArray social = scale(
          ledger, mul(ledger, r2, sub_rowvec(ledger, pos, gbest_pos)),
          -params.c2);  // (pos - gbest) * -c2 == c2 * (gbest - pos)
      // velocity = w * velocity + cognitive + social
      vel = add(ledger, add(ledger, scale(ledger, vel, params.omega),
                            cognitive),
                social);
      // position = wrap_periodic(position + velocity)
      pos = wrap_periodic(ledger, add(ledger, pos, vel), lo, hi);
      account("swarm", "pyswarms/compute_velocity", ledger.seconds());
      ledger.reset();
    }
  }

  core::Result result;
  result.gbest_value = gbest_cost;
  result.gbest_position.assign(gbest_pos.begin(), gbest_pos.end());
  result.iterations = params.max_iter;
  result.wall_seconds = watch.elapsed_s();
  result.wall_breakdown = wall;
  result.modeled_breakdown = modeled;
  result.modeled_seconds = modeled.total();
  result.profile = std::move(profile);
  return result;
}

}  // namespace fastpso::baselines
