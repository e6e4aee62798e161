#include "core/best_update.h"

#include "core/kernels_registry.h"
#include "vgpu/reduce.h"
#include "vgpu/san/sanitizer.h"

namespace fastpso::core {

namespace san = vgpu::san;

PbestStats update_pbest(vgpu::Device& device, const LaunchPolicy& policy,
                        SwarmState& state) {
  update_pbest_compare(device, policy, state);
  return update_pbest_finish(device, policy, state);
}

void update_pbest_compare(vgpu::Device& device, const LaunchPolicy& policy,
                          SwarmState& state) {
  const int n = state.n;
  const LaunchDecision decision = policy.for_particles(n);

  // Pass 1: compare and flag. Only scalar traffic.
  {
    vgpu::KernelCostSpec cost;
    cost.flops = static_cast<double>(n);
    cost.dram_read_bytes = 2.0 * n * sizeof(float);
    cost.dram_write_bytes = n * (sizeof(float) + sizeof(std::uint8_t));
    const kernels::PbestCompareKernel::Args args{
        state.perror.data(), state.pbest_err.data(), state.improved.data()};
    san::KernelScope scope("best_update/compare_flag");
    device.launch_kernel<kernels::PbestCompareKernel>(decision.config, cost,
                                                      n, args);
  }
}

PbestStats update_pbest_finish(vgpu::Device& device,
                               const LaunchPolicy& policy,
                               SwarmState& state) {
  const int n = state.n;
  const int d = state.d;
  const LaunchDecision decision = policy.for_particles(n);

  // The improved count feeds the second launch's cost declaration. In real
  // CUDA this is a fused kernel; reading the flag array here is simulator
  // bookkeeping, not a modeled transfer. Under packing the compare pass may
  // still sit deferred on this job's lane — flush before reading the flags.
  device.pack_flush_lane();
  std::int64_t improved_count = 0;
  for (int i = 0; i < n; ++i) {
    improved_count += state.improved[i];
  }

  // Pass 2: gather best positions for improved particles.
  {
    vgpu::KernelCostSpec cost;
    cost.dram_read_bytes =
        static_cast<double>(n) * sizeof(std::uint8_t) +
        static_cast<double>(improved_count) * d * sizeof(float);
    cost.dram_write_bytes =
        static_cast<double>(improved_count) * d * sizeof(float);
    const kernels::PbestGatherKernel::Args args{
        state.improved.data(), state.positions.data(), state.pbest_pos.data(),
        d};
    san::KernelScope scope("best_update/gather");
    device.launch_kernel<kernels::PbestGatherKernel>(decision.config, cost, n,
                                                     args);
  }

  return {.improved = improved_count};
}

float update_gbest(vgpu::Device& device, SwarmState& state) {
  const vgpu::ArgMin best =
      vgpu::reduce_argmin(device, state.pbest_err.data(), state.n);
  if (best.value < state.gbest_err) {
    state.gbest_err = best.value;
    // Copy the winner's best position into the global best vector.
    const int d = state.d;
    vgpu::LaunchConfig cfg;
    cfg.grid = 1;
    cfg.block = std::min(d, device.spec().max_threads_per_block);
    vgpu::KernelCostSpec cost;
    cost.dram_read_bytes = static_cast<double>(d) * sizeof(float);
    cost.dram_write_bytes = static_cast<double>(d) * sizeof(float);
    const kernels::GbestCopyKernel::Args args{
        state.pbest_pos.data() + best.index * d, state.gbest_pos.data()};
    san::KernelScope scope("best_update/gbest_copy");
    device.launch_kernel<kernels::GbestCopyKernel>(cfg, cost, d, args);
  }
  return state.gbest_err;
}

}  // namespace fastpso::core
