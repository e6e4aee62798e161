// hgpu-pso: re-implementation of Wachowiak, Timson & DuVal (IEEE TPDS 2017),
// "Adaptive particle swarm optimization with heterogeneous multicore
// parallelism and GPU acceleration".
//
// Architecture reproduced: fitness evaluation runs on the GPU (coalesced —
// their kernels are tuned), while the swarm logic — pbest/gbest bookkeeping,
// adaptive control and the velocity/position update — runs on the multicore
// CPU with OpenMP. Positions therefore cross PCIe every iteration:
// H2D before evaluation, D2H of the fitness vector after. The per-iteration
// transfer plus the memory-bound CPU update is what keeps this baseline
// behind the pure-GPU gpu-pso in the paper's Table 1 (6.0 s vs 4.9 s on
// Sphere) even though its evaluation kernel is better optimized.
//
// Modeled time: GPU phases and transfers through the device model; CPU
// phases through CpuPerfModel at the paper host's 20 cores.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "baselines/baselines.h"
#include "common/stopwatch.h"
#include "core/eval_schema.h"
#include "core/swarm_update.h"
#include "rng/philox.h"
#include "vgpu/buffer.h"
#include "vgpu/perf_model.h"
#include "vgpu/prof/prof.h"

namespace fastpso::baselines {
namespace {

constexpr int kBlock = 256;
constexpr double kCpuRngFlopsPerValue = 2.0;
/// Below this many elements the OpenMP fork/join costs more than the update
/// loop; every element's (r1, r2) comes from the counter-based Philox at its
/// own index, so the thread count cannot change any result.
constexpr std::size_t kOmpMinElements = std::size_t{1} << 15;

}  // namespace

core::Result run_hgpu_pso(const core::Objective& objective,
                          const core::PsoParams& params,
                          vgpu::Device& device) {
  params.validate();
  const int n = params.particles;
  const int d = params.dim;
  const std::size_t elements = static_cast<std::size_t>(n) * d;

  device.reset_counters();
  const core::UpdateCoefficients coeff =
      core::make_coefficients(params, objective.lower, objective.upper);
  const float lo = static_cast<float>(objective.lower);
  const float hi = static_cast<float>(objective.upper);
  const float v_init = coeff.vmax > 0.0f ? coeff.vmax : (hi - lo);

  const vgpu::CpuPerfModel cpu(vgpu::xeon_e5_2640v4());
  const int cores = cpu.spec().cores;

  Stopwatch watch;
  TimeBreakdown wall;
  TimeBreakdown modeled_cpu;
  vgpu::prof::Profile cpu_profile;
  // The CPU half's modeled regions, mirrored into a host-event timeline
  // when profiling (the same doubles modeled_cpu accumulates).
  const auto account_cpu = [&](const char* phase, const char* label,
                               double seconds, double flops = 0) {
    modeled_cpu.add(phase, seconds);
    if (vgpu::prof::active()) {
      cpu_profile.add_host(label, phase, seconds, flops);
    }
  };
  double cpu_flops = 0;  // algorithm flops executed host-side

  // Host-side swarm (CPU owns the state).
  std::vector<float> pos(elements);
  std::vector<float> vel(elements);
  std::vector<float> pbest_pos(elements);
  std::vector<float> pbest_err(n, std::numeric_limits<float>::infinity());
  std::vector<float> perror(n, 0.0f);
  std::vector<float> gbest_pos(d, 0.0f);
  float gbest = std::numeric_limits<float>::infinity();

  // Device-side staging for the evaluation kernel.
  device.set_phase("init");
  vgpu::DeviceArray<float> d_pos(device, elements);
  vgpu::DeviceArray<float> d_err(device, n);

  const rng::PhiloxStream init_rng(params.seed + 0x2545F491u, 0);
  {
    ScopedTimer timer(wall, "init");
    for (std::size_t i = 0; i < elements; ++i) {
      const auto r = init_rng.uniform_pair_at(i);
      pos[i] = lo + (hi - lo) * r[0];
      vel[i] = -v_init + 2.0f * v_init * r[1];
    }
    pbest_pos = pos;
    cpu_flops += kCpuRngFlopsPerValue * 2.0 * static_cast<double>(elements);
    account_cpu(
        "init", "hgpu/cpu_init",
        cpu.region_seconds(
            cores, kCpuRngFlopsPerValue * 2.0 * static_cast<double>(elements),
            0, 3.0 * static_cast<double>(elements) * sizeof(float)),
        kCpuRngFlopsPerValue * 2.0 * static_cast<double>(elements));
  }

  vgpu::LaunchConfig per_particle;
  per_particle.block = kBlock;
  per_particle.grid = (n + kBlock - 1) / kBlock;

  // Loop-invariant evaluation cost, hoisted out of the iteration loop.
  const vgpu::KernelCostSpec eval_cost = core::eval_cost(objective, n, d);

  for (int iter = 0; iter < params.max_iter; ++iter) {
    // ---- GPU evaluation: H2D positions, eval kernel, D2H fitness ---------
    {
      ScopedTimer timer(wall, "eval");
      device.set_phase("eval");
      vgpu::prof::KernelLabel label("hgpu/eval");
      d_pos.upload(pos);
      core::evaluate_positions(device, per_particle, objective, d_pos.data(),
                               n, d, eval_cost, d_err.data());
      d_err.download(perror);
    }

    // ---- CPU: pbest --------------------------------------------------------
    std::size_t improved = 0;
    {
      ScopedTimer timer(wall, "pbest");
      for (int i = 0; i < n; ++i) {
        if (perror[i] < pbest_err[i]) {
          pbest_err[i] = perror[i];
          std::copy(pos.begin() + static_cast<std::ptrdiff_t>(i) * d,
                    pos.begin() + static_cast<std::ptrdiff_t>(i + 1) * d,
                    pbest_pos.begin() + static_cast<std::ptrdiff_t>(i) * d);
          ++improved;
        }
      }
      account_cpu(
          "pbest", "hgpu/cpu_pbest",
          cpu.region_seconds(
              cores, static_cast<double>(n), 0,
              (2.0 * n + 2.0 * static_cast<double>(improved) * d) *
                  sizeof(float)));
    }

    // ---- CPU: gbest ---------------------------------------------------------
    {
      ScopedTimer timer(wall, "gbest");
      int best_i = -1;
      float best = gbest;
      for (int i = 0; i < n; ++i) {
        if (pbest_err[i] < best) {
          best = pbest_err[i];
          best_i = i;
        }
      }
      if (best_i >= 0) {
        gbest = best;
        std::copy(
            pbest_pos.begin() + static_cast<std::ptrdiff_t>(best_i) * d,
            pbest_pos.begin() + static_cast<std::ptrdiff_t>(best_i + 1) * d,
            gbest_pos.begin());
      }
      account_cpu("gbest", "hgpu/cpu_gbest",
                  cpu.region_seconds(1, static_cast<double>(n), 0,
                                     static_cast<double>(n) * sizeof(float)));
    }

    // ---- CPU: OpenMP swarm update (inline randoms) ---------------------------
    {
      ScopedTimer timer(wall, "swarm");
      const rng::PhiloxStream iter_rng(
          params.seed + 0x2545F491u, 2 + static_cast<std::uint64_t>(iter));
      const core::UpdateCoefficients it_coeff =
          core::coefficients_for_iter(coeff, params, iter);
#pragma omp parallel for schedule(static) if (elements >= kOmpMinElements)
      for (std::size_t e = 0; e < elements; ++e) {
        const int j = static_cast<int>(e % d);
        const auto rr = iter_rng.uniform_pair_at(e);
        const float r1 = rr[0];
        const float r2 = rr[1];
        float nv = it_coeff.omega * vel[e] +
                   it_coeff.c1 * r1 * (pbest_pos[e] - pos[e]) +
                   it_coeff.c2 * r2 * (gbest_pos[j] - pos[e]);
        if (it_coeff.vmax > 0.0f) {
          nv = std::clamp(nv, -it_coeff.vmax, it_coeff.vmax);
        }
        vel[e] = nv;
        pos[e] += nv;
      }
      cpu_flops += (10.0 + 2.0 * kCpuRngFlopsPerValue) *
                   static_cast<double>(elements);
      account_cpu(
          "swarm", "hgpu/cpu_swarm",
          cpu.region_seconds(
              cores,
              (10.0 + 2.0 * kCpuRngFlopsPerValue) *
                  static_cast<double>(elements),
              0, 5.0 * static_cast<double>(elements) * sizeof(float)),
          (10.0 + 2.0 * kCpuRngFlopsPerValue) * static_cast<double>(elements));
    }
  }

  core::Result result;
  result.gbest_value = gbest;
  result.gbest_position = gbest_pos;
  result.iterations = params.max_iter;
  result.wall_seconds = watch.elapsed_s();
  result.wall_breakdown = wall;
  result.modeled_breakdown = device.modeled_breakdown();
  result.modeled_breakdown.merge(modeled_cpu);
  result.modeled_seconds = result.modeled_breakdown.total();
  result.counters = device.counters();
  result.counters.flops += cpu_flops;
  // Device events first, then the CPU half's host regions. The combined
  // modeled total can differ from merge()'s by ulps (different addition
  // order); hgpu is not part of the exact-parity contract.
  result.profile = device.take_profile();
  for (auto& e : cpu_profile.events) {
    result.profile.events.push_back(std::move(e));
  }
  return result;
}

}  // namespace fastpso::baselines
