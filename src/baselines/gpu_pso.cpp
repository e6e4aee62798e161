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
#include "core/swarm_update.h"
#include "rng/philox.h"
#include "vgpu/buffer.h"
#include "vgpu/prof/prof.h"
#include "vgpu/reduce.h"

namespace fastpso::baselines {
namespace {

constexpr int kBlock = 256;

}  // namespace

core::Result run_gpu_pso(const core::Objective& objective,
                         const core::PsoParams& params,
                         vgpu::Device& device) {
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
    float* p = pos.data();
    float* v = vel.data();
    float* pb = pbest_pos.data();
    float* pe = pbest_err.data();
    device.launch_elements(per_particle, cost, n, [&](std::int64_t i) {
      for (int j = 0; j < d; ++j) {
        const std::uint64_t e = static_cast<std::uint64_t>(i) * d + j;
        const auto r = init_rng.uniform_pair_at(e);
        p[i * d + j] = lo + (hi - lo) * r[0];
        v[i * d + j] = -v_init + 2.0f * v_init * r[1];
        pb[i * d + j] = p[i * d + j];
      }
      pe[i] = std::numeric_limits<float>::infinity();
    });
  }

  // Loop-invariant launch setup, hoisted out of the iteration loop: the
  // kernels' cost declarations (only pbest's traffic is data-dependent) and
  // the gbest-copy shape are identical every iteration.
  vgpu::KernelCostSpec eval_cost;
  eval_cost.flops = objective.cost.flops(d) * n;
  eval_cost.transcendentals = objective.cost.transcendentals(d) * n;
  eval_cost.dram_read_bytes = static_cast<double>(elements) * sizeof(float);
  eval_cost.dram_write_bytes = static_cast<double>(n) * sizeof(float);

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
      const float* p = pos.data();
      float* pe = perror.data();
      if (vgpu::use_fast_path() && objective.batch_fn) {
        device.account_launch(per_particle, eval_cost);
        objective.batch_fn(p, n, d, pe);
      } else {
        device.launch(per_particle, eval_cost,
                      [&](const vgpu::ThreadCtx& t) {
          const std::int64_t i = t.global_id();
          if (i < n) {
            pe[i] = static_cast<float>(objective.fn(p + i * d, d));
          }
        });
      }
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
      const float* p = pos.data();
      float* pb = pbest_pos.data();
      float* pe = perror.data();
      float* pbe = pbest_err.data();
      device.launch_elements(per_particle, cost, n, [&](std::int64_t i) {
        if (pe[i] < pbe[i]) {
          pbe[i] = pe[i];
          for (int j = 0; j < d; ++j) {
            pb[i * d + j] = p[i * d + j];
          }
        }
      });
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
        const float* src = pbest_pos.data() + best.index * d;
        float* dst = gbest_pos.data();
        device.launch_elements(gbest_cfg, gbest_cost, d,
                               [&](std::int64_t j) {
          dst[j] = src[j];
        });
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
      const core::UpdateCoefficients it_coeff =
          core::coefficients_for_iter(coeff, params, iter);
      float* p = pos.data();
      float* v = vel.data();
      const float* pb = pbest_pos.data();
      const float* gb = gbest_pos.data();
      device.launch_elements(per_particle, swarm_cost, n,
                             [&](std::int64_t i) {
        for (int j = 0; j < d; ++j) {
          const std::int64_t e = i * d + j;
          const auto r = iter_rng.uniform_pair_at(static_cast<std::uint64_t>(e));
          const float r1 = r[0];
          const float r2 = r[1];
          float nv = it_coeff.omega * v[e] +
                     it_coeff.c1 * r1 * (pb[e] - p[e]) +
                     it_coeff.c2 * r2 * (gb[j] - p[e]);
          if (it_coeff.vmax > 0.0f) {
            nv = std::clamp(nv, -it_coeff.vmax, it_coeff.vmax);
          }
          v[e] = nv;
          p[e] += nv;
        }
      });
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
