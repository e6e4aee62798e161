// Tests for the GPU baselines: gpu-pso (Hussain et al.) and hgpu-pso
// (Wachowiak et al.) on the virtual device.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "baselines/baselines.h"
#include "bit_digest.h"
#include "core/optimizer.h"
#include "problems/problem.h"
#include "vgpu/device.h"

namespace fastpso::baselines {
namespace {

core::PsoParams small_params(int n = 200, int d = 10, int iters = 400) {
  core::PsoParams params;
  params.particles = n;
  params.dim = d;
  params.max_iter = iters;
  params.seed = 42;
  return params;
}

core::Objective make(const std::string& name, int d) {
  static std::vector<std::unique_ptr<problems::Problem>> keep_alive;
  keep_alive.push_back(problems::make_problem(name));
  return core::objective_from_problem(*keep_alive.back(), d);
}

TEST(GpuPso, ConvergesOnSphere) {
  vgpu::Device device;
  const core::Result result =
      run_gpu_pso(make("sphere", 10), small_params(), device);
  EXPECT_LT(result.error_to(0.0), 4.0);  // plateau ~0.12/dim
}

/// A literal pin of one baseline run: the gbest value's bits, an
/// FNV-1a-64 digest of the position bits, the modeled seconds and the
/// launch count. The literals hold on the fast path, on the faithful
/// engine (FASTPSO_FAST_PATH=0), on one host worker and with glibc's
/// AVX/FMA variants masked.
struct Pin {
  const char* problem;
  int n;
  int d;
  int iters;
  std::uint64_t gbest_bits;
  std::uint64_t position_digest;
  double modeled_seconds;
  std::uint64_t launches;
};

void expect_pinned(const core::Result& result, const Pin& pin) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.gbest_value), pin.gbest_bits);
  EXPECT_EQ(fnv1a_bits(result.gbest_position), pin.position_digest);
  EXPECT_EQ(result.modeled_seconds, pin.modeled_seconds);
  EXPECT_EQ(result.counters.launches, pin.launches);
}

TEST(GpuPso, DeterministicForSeed) {
  // Reruns agree, and each cell matches its literals.
  static constexpr Pin kPins[] = {
      {"sphere", 100, 8, 50, 0x3fa9d72360000000ull, 0x7f42f648d5fe7c54ull,
       0x1.7e9be9a8980f8p-10, 269},
      {"griewank", 64, 33, 40, 0x40481c0400000000ull, 0xe752f59a142aa62bull,
       0x1.871ee2d84209cp-10, 221},
      // Evaluation grain 2^14 / 200 = 81 rows: the batched evaluation of
      // 250 particles splits across host workers.
      {"griewank", 250, 200, 10, 0x40a35659e0000000ull, 0x7c55f455be442f6eull,
       0x1.a7291a9458021p-9, 58},
  };
  for (const Pin& pin : kPins) {
    SCOPED_TRACE(pin.problem);
    core::Result results[2];
    for (auto& result : results) {
      vgpu::Device device;
      result = run_gpu_pso(make(pin.problem, pin.d),
                           small_params(pin.n, pin.d, pin.iters), device);
    }
    EXPECT_EQ(results[0].gbest_value, results[1].gbest_value);
    expect_pinned(results[0], pin);
  }
}

TEST(GpuPso, UncoalescedTrafficAmplified) {
  vgpu::Device device;
  const core::Result result =
      run_gpu_pso(make("sphere", 64), small_params(128, 64, 5), device);
  // Particle-major stride-64 reads fetch ~8x their useful bytes.
  EXPECT_GT(result.counters.dram_read_fetched,
            3.0 * result.counters.dram_read_useful);
}

TEST(GpuPso, UsesOneThreadPerParticleLaunches) {
  // The defining design point: grid*block ~ n (not n*d).
  vgpu::Device device;
  core::PsoParams params = small_params(1000, 32, 3);
  run_gpu_pso(make("sphere", 32), params, device);
  // Kernel launches exist but none was sized for n*d threads.
  EXPECT_GT(device.counters().launches, 0u);
}

TEST(GpuPso, SlowerThanFastPsoOnModeledTime) {
  core::PsoParams params = small_params(2000, 100, 10);
  vgpu::Device dev_baseline;
  const core::Result baseline =
      run_gpu_pso(make("sphere", 100), params, dev_baseline);
  vgpu::Device dev_fast;
  core::Optimizer optimizer(dev_fast, params);
  const core::Result fast = optimizer.optimize(make("sphere", 100));
  EXPECT_GT(baseline.modeled_seconds, 1.5 * fast.modeled_seconds);
}

TEST(HgpuPso, ConvergesOnSphere) {
  vgpu::Device device;
  const core::Result result =
      run_hgpu_pso(make("sphere", 10), small_params(), device);
  EXPECT_LT(result.error_to(0.0), 4.0);  // plateau ~0.12/dim
}

TEST(HgpuPso, DeterministicForSeed) {
  // Same pins as GpuPso.DeterministicForSeed. The 1200x33 cell's batched
  // evaluation splits across host workers (grain 2^14 / 33 = 496 rows).
  static constexpr Pin kPins[] = {
      {"sphere", 100, 8, 50, 0x3fb7492480000000ull, 0x203c20647dcadd11ull,
       0x1.5aead0924207dp-9, 50},
      {"griewank", 1200, 33, 10, 0x405a8768c0000000ull, 0xc77d534ed72bfa3bull,
       0x1.d672325388381p-10, 10},
  };
  for (const Pin& pin : kPins) {
    SCOPED_TRACE(pin.problem);
    core::Result results[2];
    for (auto& result : results) {
      vgpu::Device device;
      result = run_hgpu_pso(make(pin.problem, pin.d),
                            small_params(pin.n, pin.d, pin.iters), device);
    }
    EXPECT_EQ(results[0].gbest_value, results[1].gbest_value);
    expect_pinned(results[0], pin);
  }
}

TEST(HgpuPso, TransfersPositionsEveryIteration) {
  vgpu::Device device;
  const int iters = 7;
  const core::Result result =
      run_hgpu_pso(make("sphere", 16), small_params(64, 16, iters), device);
  // One H2D (positions) and one D2H (fitness) per iteration.
  EXPECT_GE(result.counters.transfers, 2u * iters);
  EXPECT_GT(result.counters.h2d_bytes,
            static_cast<double>(iters) * 64 * 16 * sizeof(float) - 1);
}

TEST(HgpuPso, ErrorsComparableToGpuPso) {
  // Both are clamped standard PSO; quality should be in the same league
  // (Table 2: 23.72 vs 15.06 at paper scale).
  vgpu::Device dev_a;
  vgpu::Device dev_b;
  const core::Result gpu =
      run_gpu_pso(make("rastrigin", 8), small_params(300, 8, 200), dev_a);
  const core::Result hgpu =
      run_hgpu_pso(make("rastrigin", 8), small_params(300, 8, 200), dev_b);
  EXPECT_LT(gpu.gbest_value, 40.0);
  EXPECT_LT(hgpu.gbest_value, 40.0);
}

TEST(GpuBaselines, BreakdownsPresent) {
  vgpu::Device dev_a;
  const core::Result gpu =
      run_gpu_pso(make("sphere", 8), small_params(64, 8, 5), dev_a);
  for (const char* step : {"init", "eval", "pbest", "gbest", "swarm"}) {
    EXPECT_GT(gpu.modeled_breakdown.get(step), 0.0) << "gpu " << step;
  }
  vgpu::Device dev_b;
  const core::Result hgpu =
      run_hgpu_pso(make("sphere", 8), small_params(64, 8, 5), dev_b);
  for (const char* step : {"init", "eval", "pbest", "gbest", "swarm"}) {
    EXPECT_GT(hgpu.modeled_breakdown.get(step), 0.0) << "hgpu " << step;
  }
}

}  // namespace
}  // namespace fastpso::baselines
