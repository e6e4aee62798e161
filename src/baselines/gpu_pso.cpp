// gpu-pso: re-implementation of Hussain, Hattori & Fujimoto (SYNASC 2016),
// "A CUDA implementation of the standard particle swarm optimization" — the
// state-of-the-art GPU baseline the paper compares against.
//
// Design points reproduced from their system:
//   * particle-level parallelism: ONE THREAD PER PARTICLE, each thread
//     serially walking its particle's d dimensions for the update — the
//     granularity FastPSO's element-wise modeling replaces. At n=5000 the
//     launch keeps only a few warps per SM resident, so the performance
//     model's occupancy terms throttle both bandwidth and compute (the
//     mechanism behind the paper's 5-7x gap);
//   * particle-major [n][d] array layout, natural for per-particle threads:
//     consecutive threads touch addresses d*4 bytes apart, so the update
//     kernel's matrix accesses are UNCOALESCED (declared through
//     stride_amplification — reads fetch a full sector per element; writes
//     merge partially in L2, modeled at half the read amplification);
//   * their headline optimization — coalesced memory for the fitness
//     evaluation — is honored: the evaluation kernel is charged at
//     amplification 1;
//   * per-thread inline cuRAND-style randoms (counter-based Philox here),
//     so no L/G matrices are materialized;
//   * standard-PSO velocity clamping (their implementation follows
//     Clerc's SPSO), hence Table 2 errors comparable to FastPSO's.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "baselines/baselines.h"
#include "common/stopwatch.h"
#include "core/eval_schema.h"
#include "core/kernels_registry.h"
#include "core/swarm_update.h"
#include "rng/philox.h"
#include "vgpu/buffer.h"
#include "vgpu/prof/prof.h"
#include "vgpu/reduce.h"

namespace fastpso::baselines {
namespace {

constexpr int kBlock = 256;

// gpu-pso's per-particle element kernels (core/kernels_registry.h
// contract: a by-value Args and a per-element body; the gbest row copy is
// core's GbestCopyKernel). Each index writes only its own row, so
// launch_kernel may split a launch across host workers.

/// gpu_pso/init: particle i draws its position and velocity rows and
/// resets its personal best.
struct InitKernel {
  struct Args {
    rng::PhiloxStream rng;
    float* p;
    float* v;
    float* pb;
    float* pe;
    int d;
    float lo;
    float hi;
    float v_init;
  };
  static void element(const Args& a, std::int64_t i) {
    const int d = a.d;
    for (int j = 0; j < d; ++j) {
      const std::uint64_t e = static_cast<std::uint64_t>(i) * d + j;
      const auto r = a.rng.uniform_pair_at(e);
      a.p[i * d + j] = a.lo + (a.hi - a.lo) * r[0];
      a.v[i * d + j] = -a.v_init + 2.0f * a.v_init * r[1];
      a.pb[i * d + j] = a.p[i * d + j];
    }
    a.pe[i] = std::numeric_limits<float>::infinity();
  }
};

/// gpu_pso/pbest: particle i adopts its position row when it improved.
struct PbestKernel {
  struct Args {
    const float* p;
    float* pb;
    const float* pe;
    float* pbe;
    int d;
  };
  static void element(const Args& a, std::int64_t i) {
    if (a.pe[i] < a.pbe[i]) {
      a.pbe[i] = a.pe[i];
      for (int j = 0; j < a.d; ++j) {
        a.pb[i * a.d + j] = a.p[i * a.d + j];
      }
    }
  }
};

/// gpu_pso/swarm: particle i walks its d dimensions serially, drawing its
/// randoms inline.
struct SwarmKernel {
  struct Args {
    rng::PhiloxStream rng;
    core::UpdateCoefficients coeff;
    float* p;
    float* v;
    const float* pb;
    const float* gb;
    int d;
  };
  static void element(const Args& a, std::int64_t i) {
    const core::UpdateCoefficients& k = a.coeff;
    for (int j = 0; j < a.d; ++j) {
      const std::int64_t e = i * a.d + j;
      const auto r = a.rng.uniform_pair_at(static_cast<std::uint64_t>(e));
      const float r1 = r[0];
      const float r2 = r[1];
      float nv = k.omega * a.v[e] + k.c1 * r1 * (a.pb[e] - a.p[e]) +
                 k.c2 * r2 * (a.gb[j] - a.p[e]);
      if (k.vmax > 0.0f) {
        nv = std::clamp(nv, -k.vmax, k.vmax);
      }
      a.v[e] = nv;
      a.p[e] += nv;
    }
  }
};

}  // namespace

core::Result run_gpu_pso(const core::Objective& objective,
                         const core::PsoParams& params,
                         vgpu::Device& device) {
  params.validate();
  const int n = params.particles;
  const int d = params.dim;
  const std::int64_t elements = static_cast<std::int64_t>(n) * d;

  device.reset_counters();
  const core::UpdateCoefficients coeff =
      core::make_coefficients(params, objective.lower, objective.upper);
  const float lo = static_cast<float>(objective.lower);
  const float hi = static_cast<float>(objective.upper);
  const float v_init = coeff.vmax > 0.0f ? coeff.vmax : (hi - lo);

  Stopwatch watch;
  TimeBreakdown wall;

  // One thread per particle throughout — the defining launch shape.
  vgpu::LaunchConfig per_particle;
  per_particle.block = kBlock;
  per_particle.grid = (n + kBlock - 1) / kBlock;

  // Uncoalesced amplification of the particle-major layout.
  const double read_amp = vgpu::stride_amplification(d, sizeof(float));
  const double write_amp = std::max(1.0, read_amp / 2.0);  // L2 write merge

  device.set_phase("init");
  vgpu::DeviceArray<float> pos(device, elements);
  vgpu::DeviceArray<float> vel(device, elements);
  vgpu::DeviceArray<float> pbest_pos(device, elements);
  vgpu::DeviceArray<float> pbest_err(device, n);
  vgpu::DeviceArray<float> perror(device, n);
  vgpu::DeviceArray<float> gbest_pos(device, d);
  float gbest = std::numeric_limits<float>::infinity();

  const rng::PhiloxStream init_rng(params.seed + 0x517CC1B7u, 0);
  {
    ScopedTimer timer(wall, "init");
    vgpu::prof::KernelLabel label("gpu_pso/init");
    vgpu::KernelCostSpec cost;
    cost.flops = (13.0 * 2.0 + 4.0) * static_cast<double>(elements);
    cost.dram_write_bytes = 3.0 * static_cast<double>(elements) *
                            sizeof(float);
    cost.write_amplification = write_amp;
    device.launch_kernel<InitKernel>(
        per_particle, cost, n,
        {init_rng, pos.data(), vel.data(), pbest_pos.data(), pbest_err.data(),
         d, lo, hi, v_init});
  }

  // Loop-invariant launch setup, hoisted out of the iteration loop: the
  // kernels' cost declarations (only pbest's traffic is data-dependent) and
  // the gbest-copy shape are identical every iteration.
  const vgpu::KernelCostSpec eval_cost = core::eval_cost(objective, n, d);

  vgpu::KernelCostSpec pbest_cost;
  pbest_cost.flops = static_cast<double>(n);
  pbest_cost.read_amplification = read_amp;
  pbest_cost.write_amplification = write_amp;

  vgpu::LaunchConfig gbest_cfg;
  gbest_cfg.grid = 1;
  gbest_cfg.block = std::min(d, device.spec().max_threads_per_block);
  vgpu::KernelCostSpec gbest_cost;
  gbest_cost.dram_read_bytes = static_cast<double>(d) * sizeof(float);
  gbest_cost.dram_write_bytes = static_cast<double>(d) * sizeof(float);

  vgpu::KernelCostSpec swarm_cost;
  swarm_cost.flops = (10.0 + 2.0 * 13.0) * static_cast<double>(elements);
  swarm_cost.dram_read_bytes =
      (3.0 * static_cast<double>(elements) + d) * sizeof(float);
  swarm_cost.dram_write_bytes =
      2.0 * static_cast<double>(elements) * sizeof(float);
  swarm_cost.read_amplification = read_amp;
  swarm_cost.write_amplification = write_amp;

  for (int iter = 0; iter < params.max_iter; ++iter) {
    // ---- fitness evaluation (their coalesced kernel) --------------------
    {
      ScopedTimer timer(wall, "eval");
      device.set_phase("eval");
      vgpu::prof::KernelLabel label("gpu_pso/eval");
      core::evaluate_positions(device, per_particle, objective, pos.data(), n,
                               d, eval_cost, perror.data());
    }

    // ---- pbest update (uncoalesced row copies) ----------------------------
    std::int64_t improved = 0;
    {
      ScopedTimer timer(wall, "pbest");
      device.set_phase("pbest");
      vgpu::prof::KernelLabel label("gpu_pso/pbest");
      // Count improvements first so the traffic declaration is honest.
      for (int i = 0; i < n; ++i) {
        improved += perror[i] < pbest_err[i] ? 1 : 0;
      }
      vgpu::KernelCostSpec cost = pbest_cost;
      cost.dram_read_bytes =
          2.0 * n * sizeof(float) +
          static_cast<double>(improved) * d * sizeof(float);
      cost.dram_write_bytes =
          n * sizeof(float) +
          static_cast<double>(improved) * d * sizeof(float);
      device.launch_kernel<PbestKernel>(
          per_particle, cost, n,
          {pos.data(), pbest_pos.data(), perror.data(), pbest_err.data(), d});
    }

    // ---- gbest (parallel reduction + row copy) ------------------------------
    {
      ScopedTimer timer(wall, "gbest");
      device.set_phase("gbest");
      const vgpu::ArgMin best =
          vgpu::reduce_argmin(device, pbest_err.data(), n);
      if (best.value < gbest) {
        gbest = best.value;
        vgpu::prof::KernelLabel label("gpu_pso/gbest_copy");
        device.launch_kernel<core::kernels::GbestCopyKernel>(
            gbest_cfg, gbest_cost, d,
            {pbest_pos.data() + best.index * d, gbest_pos.data()});
      }
    }

    // ---- swarm update: per-particle serial d-loop, inline randoms ----------
    {
      ScopedTimer timer(wall, "swarm");
      device.set_phase("swarm");
      vgpu::prof::KernelLabel label("gpu_pso/swarm");
      const rng::PhiloxStream iter_rng(
          params.seed + 0x517CC1B7u,
          2 + static_cast<std::uint64_t>(iter));
      device.launch_kernel<SwarmKernel>(
          per_particle, swarm_cost, n,
          {iter_rng, core::coefficients_for_iter(coeff, params, iter),
           pos.data(), vel.data(), pbest_pos.data(), gbest_pos.data(), d});
    }
  }

  core::Result result;
  result.gbest_value = gbest;
  result.gbest_position.resize(d);
  gbest_pos.download(result.gbest_position);
  result.iterations = params.max_iter;
  result.wall_seconds = watch.elapsed_s();
  result.wall_breakdown = wall;
  result.modeled_breakdown = device.modeled_breakdown();
  result.modeled_seconds = device.modeled_seconds();
  result.counters = device.counters();
  result.profile = device.take_profile();
  return result;
}

}  // namespace fastpso::baselines
