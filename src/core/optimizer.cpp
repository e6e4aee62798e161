#include "core/optimizer.h"

#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"
#include "core/best_update.h"
#include "core/eval_schema.h"
#include "core/init.h"
#include "core/swarm_state.h"
#include <algorithm>
#include <limits>

#include "core/job_run.h"
#include "core/neighborhood.h"
#include "core/stop_tracker.h"
#include "rng/philox.h"
#include "core/swarm_update.h"
#include "vgpu/memory_pool.h"
#include "vgpu/prof/prof.h"
#include "vgpu/san/tracked.h"

namespace fastpso::core {

Objective objective_from_problem(const problems::Problem& problem, int dim) {
  Objective objective;
  objective.name = problem.name();
  objective.lower = problem.lower_bound();
  objective.upper = problem.upper_bound();
  objective.cost = problem.cost();
  objective.optimum = problem.optimum_value(dim);
  objective.has_optimum = problem.has_known_optimum();
  objective.fn = [&problem](const float* x, int d) {
    return problem.eval_f32(x, d);
  };
  objective.batch_fn = [&problem](const float* X, int n, int d, float* out) {
    problem.eval_batch(X, n, d, out);
  };
  return objective;
}


Optimizer::Optimizer(vgpu::Device& device, PsoParams params)
    : device_(device), params_(params), policy_(device.spec()) {
  params_.validate();
}

Result Optimizer::optimize(const Objective& objective) {
  return optimize(objective, IterationCallback{});
}

Result Optimizer::optimize(const Objective& objective,
                           const IterationCallback& callback) {
  FASTPSO_CHECK_MSG(static_cast<bool>(objective.fn),
                    "objective has no evaluation function");
  FASTPSO_CHECK_MSG(objective.upper > objective.lower,
                    "objective domain is empty");
  if (params_.synchronization == Synchronization::kAsynchronous) {
    return optimize_async(objective, callback);
  }
  return optimize_sync(objective, callback);
}

Result Optimizer::optimize_sync(const Objective& objective,
                                const IterationCallback& callback) {
  device_.reset_counters();
  device_.pool().set_enabled(params_.memory_caching);

  // The run body lives in core::JobRun so the serve scheduler (src/serve/)
  // can drive the identical loop one iteration at a time on a shared
  // device — solo-vs-scheduled bitwise equivalence by construction.
  JobRun run(device_, params_, objective, JobRun::Mode::kSolo);
  while (!run.done()) {
    run.step();
    if (callback && !callback(run.iterations() - 1, run.gbest())) {
      break;
    }
  }
  return run.finish();
}

Result Optimizer::optimize_async(const Objective& objective,
                                 const IterationCallback& callback) {
  // Asynchronous PSO (cf. Koh et al. 2006 / Venter & Sobieszczanski 2006,
  // surveyed in the paper's Section 5.1): evaluation, pbest/gbest update
  // and the particle's own move are fused into one per-particle pass, so
  // later particles in an iteration already see this iteration's improved
  // global best. The fusion forces particle-level parallelism — one thread
  // per particle, serialized gbest updates (atomics on real hardware) — so
  // it deliberately gives up FastPSO's element-wise granularity; the
  // ablation bench quantifies that trade.
  device_.reset_counters();
  device_.pool().set_enabled(params_.memory_caching);
  FASTPSO_CHECK_MSG(params_.topology == Topology::kGlobal,
                    "async mode supports the global topology only");

  const int n = params_.particles;
  const int d = params_.dim;
  const UpdateCoefficients coeff =
      make_coefficients(params_, objective.lower, objective.upper);
  const float v_init = coeff.vmax > 0.0f
                           ? coeff.vmax
                           : static_cast<float>(objective.upper -
                                                objective.lower);

  Result result;
  TimeBreakdown wall;
  Stopwatch total_watch;

  device_.set_phase("init");
  SwarmState state(device_, n, d);
  {
    ScopedTimer timer(wall, "init");
    initialize_swarm(device_, policy_, state, params_.seed,
                     static_cast<float>(objective.lower),
                     static_cast<float>(objective.upper), v_init);
  }

  // Per-particle launch shape: the fusion's inherent granularity.
  vgpu::LaunchConfig per_particle;
  per_particle.block = 256;
  per_particle.grid = (n + per_particle.block - 1) / per_particle.block;

  namespace san = vgpu::san;
  float* raw_positions = state.positions.data();
  const std::int64_t elements = state.elements();
  // Tracked views for the fused kernels. gbest_pos is written under the
  // serialized-update semantics a real GPU implements with atomics/locks,
  // so it is classed kAtomic (race checks suppressed by declaration); the
  // fused kernels' traffic is improved-count-dependent, so their launches
  // are trace-only rather than cost-audited.
  const auto velocities =
      san::track(state.velocities.data(), elements, "velocities");
  const auto positions = san::track(raw_positions, elements, "positions");
  const auto pbest_pos =
      san::track(state.pbest_pos.data(), elements, "pbest_pos");
  const auto pbest_err =
      san::track(state.pbest_err.data(), static_cast<std::size_t>(n),
                 "pbest_err");
  const auto gbest_pos =
      san::track(state.gbest_pos.data(), static_cast<std::size_t>(d),
                 "gbest_pos", san::BufferClass::kAtomic);

  // Seed gbest from the initial positions (one evaluation pass).
  {
    ScopedTimer timer(wall, "eval");
    vgpu::prof::Scope phase(device_, "eval");
    const vgpu::KernelCostSpec cost = eval_cost(objective, n, d);
    san::KernelScope scope("optimizer/async_seed",
                           san::AuditMode::kTraceOnly);
    device_.launch(per_particle, cost, [&](const vgpu::ThreadCtx& t) {
      const std::int64_t i = t.global_id();
      if (i < n) {
        const float err =
            static_cast<float>(objective.fn(raw_positions + i * d, d));
        pbest_err[i] = err;
        if (err < state.gbest_err) {
          state.gbest_err = err;
          for (int j = 0; j < d; ++j) {
            gbest_pos[j] = positions[i * d + j];
          }
        }
      }
    });
  }

  StopTracker stop(params_);
  int completed = 0;
  for (int iter = 0; iter < params_.max_iter; ++iter) {
    device_.set_phase("swarm");
    ScopedTimer timer(wall, "swarm");
    const UpdateCoefficients it_coeff =
        coefficients_for_iter(coeff, params_, iter);
    const rng::PhiloxStream iter_rng(
        params_.seed ^ 0x5851F42Du, 2 + static_cast<std::uint64_t>(iter));

    vgpu::KernelCostSpec cost;
    cost.flops = (10.0 + 2.0 * kPhiloxFlopsPerValue) *
                     static_cast<double>(elements) +
                 objective.cost.flops(d) * n;
    cost.transcendentals = objective.cost.transcendentals(d) * n;
    cost.dram_read_bytes =
        4.0 * static_cast<double>(elements) * sizeof(float);
    cost.dram_write_bytes =
        2.5 * static_cast<double>(elements) * sizeof(float);
    san::KernelScope scope("optimizer/async_fused",
                           san::AuditMode::kTraceOnly);
    device_.launch(per_particle, cost, [&](const vgpu::ThreadCtx& t) {
      const std::int64_t i = t.global_id();
      if (i >= n) {
        return;
      }
      // Move with the freshest gbest (already updated by lower-indexed
      // particles of this same iteration).
      for (int j = 0; j < d; ++j) {
        const std::int64_t e = i * d + j;
        const auto r =
            iter_rng.uniform_pair_at(static_cast<std::uint64_t>(e));
        const float pe = positions[e];
        float nv = it_coeff.omega * velocities[e] +
                   it_coeff.c1 * r[0] * (pbest_pos[e] - pe) +
                   it_coeff.c2 * r[1] * (gbest_pos[j] - pe);
        if (it_coeff.vmax > 0.0f) {
          nv = std::clamp(nv, -it_coeff.vmax, it_coeff.vmax);
        }
        velocities[e] = nv;
        positions[e] = pe + nv;
      }
      const float err =
          static_cast<float>(objective.fn(raw_positions + i * d, d));
      if (err < pbest_err[i]) {
        pbest_err[i] = err;
        for (int j = 0; j < d; ++j) {
          pbest_pos[i * d + j] = positions[i * d + j];
        }
        if (err < state.gbest_err) {
          state.gbest_err = err;  // serialized (atomic on real hardware)
          for (int j = 0; j < d; ++j) {
            gbest_pos[j] = positions[i * d + j];
          }
        }
      }
    });

    completed = iter + 1;
    result.gbest_history.push_back(state.gbest_err);
    if (callback && !callback(iter, state.gbest_err)) {
      break;
    }
    if (stop.should_stop(state.gbest_err)) {
      break;
    }
  }

  device_.set_phase("gbest");
  result.gbest_position.resize(d);
  state.gbest_pos.download(result.gbest_position);
  result.gbest_value = state.gbest_err;
  result.iterations = completed;
  result.wall_seconds = total_watch.elapsed_s();
  result.wall_breakdown = wall;
  result.modeled_breakdown = device_.modeled_breakdown();
  result.modeled_seconds = device_.modeled_seconds();
  result.counters = device_.counters();
  result.profile = device_.take_profile();
  return result;
}

}  // namespace fastpso::core
