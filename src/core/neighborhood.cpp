#include "core/neighborhood.h"

#include "common/check.h"
#include "core/kernels_registry.h"

namespace fastpso::core {

void update_ring_nbest(vgpu::Device& device, const LaunchPolicy& policy,
                       const SwarmState& state, int neighbors,
                       vgpu::DeviceArray<std::int32_t>& nbest_idx) {
  const int n = state.n;
  FASTPSO_CHECK_MSG(neighbors >= 1, "ring needs at least one neighbor");
  FASTPSO_CHECK_MSG(2 * neighbors + 1 <= n,
                    "ring window exceeds the swarm");
  FASTPSO_CHECK(nbest_idx.size() >= static_cast<std::size_t>(n));

  const LaunchDecision decision = policy.for_particles(n);
  vgpu::KernelCostSpec cost;
  cost.flops = static_cast<double>(n) * (2 * neighbors + 1);
  // Each particle reads its window of pbest errors (served mostly from
  // cache; count the window once) and writes one index.
  cost.dram_read_bytes =
      static_cast<double>(n) * (2 * neighbors + 1) * sizeof(float);
  cost.dram_write_bytes = static_cast<double>(n) * sizeof(std::int32_t);

  const kernels::RingNbestKernel::Args args{state.pbest_err.data(),
                                            nbest_idx.data(), n, neighbors};
  device.launch_kernel<kernels::RingNbestKernel>(decision.config, cost, n,
                                                 args);
}

}  // namespace fastpso::core
