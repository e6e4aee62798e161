// sko.PSO (scikit-opt, Pedregosa et al.-adjacent library used in the paper)
// re-implementation, following the library's behaviour:
//
//   * NumPy-vectorized update, one temporary per operator;
//   * positions clipped (np.clip) into the domain every iteration —
//     with diverging velocities, particles pile up on the bounds, which is
//     why sko's Table 2 errors are even larger than pyswarms';
//   * NO velocity clamping by default;
//   * precision-style early stop: the run ends after `patience` iterations
//     without gbest improvement. This reproduces the paper's Table 1
//     anomaly where scikit-opt finishes Easom in ~13 s while pyswarms takes
//     ~127 s: the generalized Easom landscape underflows to an exactly flat
//     0 almost everywhere, so gbest never improves and sko stops early;
//   * an explicit Python-level loop over particles for the per-iteration
//     bookkeeping (sko's update_pbest does a Python-side pass).

#include <cmath>
#include <limits>
#include <vector>

#include "baselines/baselines.h"
#include "baselines/ndarray.h"
#include "common/stopwatch.h"
#include "rng/xoshiro.h"
#include "vgpu/prof/prof.h"

namespace fastpso::baselines {

core::Result run_scikit_opt_like(const core::Objective& objective,
                                 const core::PsoParams& params,
                                 const ScikitOptions& options) {
  params.validate();
  const std::size_t n = static_cast<std::size_t>(params.particles);
  const std::size_t d = static_cast<std::size_t>(params.dim);
  const double lo = objective.lower;
  const double hi = objective.upper;

  CostLedger ledger;
  rng::Xoshiro256 rng(params.seed + 0xC0FFEEu);
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
    // sko initializes velocities in [-|hi-lo|, |hi-lo|].
    fill_uniform(ledger, vel, -(hi - lo), hi - lo, unit);
    pbest_pos = pos;
    ledger.record_op(pos.bytes(), pos.bytes(), 1, pos.bytes());
    account("init", "sko/init", ledger.seconds());
    ledger.reset();
  }

  int completed = 0;
  int since_improved = 0;
  std::vector<float> row32(d);
  for (int iter = 0; iter < params.max_iter; ++iter) {
    // ---- cal_y: vectorized objective --------------------------------------
    {
      ScopedTimer timer(wall, "eval");
      for (std::size_t i = 0; i < n; ++i) {
        const double* row = pos.data() + i * d;
        for (std::size_t j = 0; j < d; ++j) {
          row32[j] = static_cast<float>(row[j]);
        }
        current_cost[i] = objective.fn(row32.data(), static_cast<int>(d));
      }
      const double matrix_bytes = static_cast<double>(n * d) * sizeof(double);
      for (int pass = 0;
           pass < static_cast<int>(objective.cost.vector_passes + 0.5);
           ++pass) {
        ledger.record_op(matrix_bytes, matrix_bytes, 1, matrix_bytes);
      }
      account("eval", "sko/cal_y", ledger.seconds());
      ledger.reset();
    }

    // ---- update_pbest (Python-side loop in sko) ---------------------------
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
      ledger.record_python_loop(n);
      ledger.record_op(2.0 * pos.bytes(), pos.bytes(), 1, pos.bytes());
      account("pbest", "sko/update_pbest", ledger.seconds());
      ledger.reset();
    }

    // ---- update_gbest ------------------------------------------------------
    bool improved = false;
    {
      ScopedTimer timer(wall, "gbest");
      const std::size_t best = argmin(ledger, pbest_cost);
      if (pbest_cost[best] + 1e-12 < gbest_cost) {
        gbest_cost = pbest_cost[best];
        for (std::size_t j = 0; j < d; ++j) {
          gbest_pos[j] = pbest_pos(best, j);
        }
        improved = true;
      }
      account("gbest", "sko/update_gbest", ledger.seconds());
      ledger.reset();
    }

    // ---- update_V / update_X ------------------------------------------------
    {
      ScopedTimer timer(wall, "swarm");
      NdArray r1(n, d);
      NdArray r2(n, d);
      fill_uniform(ledger, r1, 0.0, 1.0, unit);
      fill_uniform(ledger, r2, 0.0, 1.0, unit);
      NdArray cognitive =
          scale(ledger, mul(ledger, r1, sub(ledger, pbest_pos, pos)),
                params.c1);
      NdArray social = scale(
          ledger, mul(ledger, r2, sub_rowvec(ledger, pos, gbest_pos)),
          -params.c2);
      vel = add(ledger,
                add(ledger, scale(ledger, vel, params.omega), cognitive),
                social);
      // X = np.clip(X + V, lb, ub)
      pos = clip(ledger, add(ledger, pos, vel), lo, hi);
      account("swarm", "sko/update_V", ledger.seconds());
      ledger.reset();
    }

    completed = iter + 1;
    since_improved = improved ? 0 : since_improved + 1;
    if (options.patience > 0 && since_improved >= options.patience) {
      break;  // sko precision-based early stop
    }
  }

  core::Result result;
  result.gbest_value = gbest_cost;
  result.gbest_position.assign(gbest_pos.begin(), gbest_pos.end());
  result.iterations = completed;
  result.wall_seconds = watch.elapsed_s();
  result.wall_breakdown = wall;
  result.modeled_breakdown = modeled;
  result.modeled_seconds = modeled.total();
  result.profile = std::move(profile);
  return result;
}

}  // namespace fastpso::baselines
