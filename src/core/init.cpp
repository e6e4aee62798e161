#include "core/init.h"

#include <limits>

#include "common/check.h"
#include "core/kernels_registry.h"
#include "rng/philox.h"
#include "vgpu/san/sanitizer.h"

namespace fastpso::core {
namespace {

namespace san = vgpu::san;

/// Cost of one "fill with uniform randoms" launch over `elements` floats.
vgpu::KernelCostSpec fill_cost(std::int64_t elements) {
  vgpu::KernelCostSpec cost;
  cost.flops = kPhiloxFlopsPerValue * static_cast<double>(elements);
  cost.dram_write_bytes = static_cast<double>(elements) * sizeof(float);
  return cost;
}

/// Grid-stride fill of `out[0, elements)` with U(lo, hi) from `stream`.
/// Each thread produces whole 4-lane Philox blocks (element i still gets
/// the value uniform_at(i), independent of launch shape).
void fill_uniform(vgpu::Device& device, const LaunchPolicy& policy,
                  float* out, std::int64_t elements, std::uint64_t seed,
                  std::uint64_t stream, float lo, float hi) {
  const std::int64_t blocks = (elements + 3) / 4;
  const kernels::FillUniformKernel::Args args{rng::PhiloxStream(seed, stream),
                                              out, elements, lo, hi - lo};
  san::KernelScope scope("init/fill_uniform");
  device.launch_kernel<kernels::FillUniformKernel>(
      policy.for_elements(blocks).config, fill_cost(elements), blocks, args);
}

/// Sharded fill: element b of the launch is the b-th global Philox block
/// overlapping [offset, offset+count); in-range lanes land in
/// out[g - offset]. Bitwise-equal to the matching slice of fill_uniform
/// over the whole array (same seed/stream/global counter), for any shard
/// boundaries — including ones that split a 4-lane block.
void fill_uniform_slice_impl(vgpu::Device& device, const LaunchPolicy& policy,
                             float* out, std::int64_t offset,
                             std::int64_t count, std::uint64_t seed,
                             std::uint64_t stream, float lo, float hi) {
  FASTPSO_CHECK(offset >= 0 && count >= 0);
  if (count == 0) {
    return;
  }
  const std::int64_t blocks = (offset + count - 1) / 4 - offset / 4 + 1;
  const kernels::FillUniformSliceKernel::Args args{
      rng::PhiloxStream(seed, stream), out, offset, count, lo, hi - lo};
  san::KernelScope scope("init/fill_uniform_slice");
  device.launch_kernel<kernels::FillUniformSliceKernel>(
      policy.for_elements(blocks).config, fill_cost(count), blocks, args);
}

/// pbest starts at +inf so the first evaluation always improves it; the
/// pbest positions start at the initial positions.
void reset_pbest(vgpu::Device& device, const LaunchPolicy& policy,
                 SwarmState& state) {
  const std::int64_t elements = state.elements();
  vgpu::KernelCostSpec cost;
  cost.dram_read_bytes = static_cast<double>(elements) * sizeof(float);
  cost.dram_write_bytes =
      static_cast<double>(elements + 2 * state.n) * sizeof(float);
  const kernels::PbestResetKernel::Args args{
      state.pbest_err.data(), state.perror.data(), state.positions.data(),
      state.pbest_pos.data(), state.d};
  san::KernelScope scope("init/pbest_reset");
  device.launch_kernel<kernels::PbestResetKernel>(
      policy.for_particles(state.n).config, cost, state.n, args);
  state.gbest_err = std::numeric_limits<float>::infinity();
}

}  // namespace

void initialize_swarm(vgpu::Device& device, const LaunchPolicy& policy,
                      SwarmState& state, std::uint64_t seed, float lower,
                      float upper, float vmax) {
  const std::int64_t elements = state.elements();
  fill_uniform(device, policy, state.positions.data(), elements, seed,
               /*stream=*/0, lower, upper);
  fill_uniform(device, policy, state.velocities.data(), elements, seed,
               /*stream=*/1, -vmax, vmax);
  reset_pbest(device, policy, state);
}

void generate_weights(vgpu::Device& device, const LaunchPolicy& policy,
                      std::int64_t elements, std::uint64_t seed, int iter,
                      vgpu::DeviceArray<float>& l_mat,
                      vgpu::DeviceArray<float>& g_mat) {
  const std::uint64_t l_stream = 2 + 2 * static_cast<std::uint64_t>(iter);
  const std::uint64_t g_stream = l_stream + 1;
  fill_uniform(device, policy, l_mat.data(), elements, seed, l_stream, 0.0f,
               1.0f);
  fill_uniform(device, policy, g_mat.data(), elements, seed, g_stream, 0.0f,
               1.0f);
}

void fill_uniform_slice(vgpu::Device& device, const LaunchPolicy& policy,
                        float* out, std::int64_t offset, std::int64_t count,
                        std::uint64_t seed, std::uint64_t stream, float lo,
                        float hi) {
  fill_uniform_slice_impl(device, policy, out, offset, count, seed, stream,
                          lo, hi);
}

void initialize_swarm_slice(vgpu::Device& device, const LaunchPolicy& policy,
                            SwarmState& state, std::uint64_t seed,
                            std::int64_t offset, float lower, float upper,
                            float vmax) {
  const std::int64_t count = state.elements();
  fill_uniform_slice_impl(device, policy, state.positions.data(), offset,
                          count, seed, /*stream=*/0, lower, upper);
  fill_uniform_slice_impl(device, policy, state.velocities.data(), offset,
                          count, seed, /*stream=*/1, -vmax, vmax);
  reset_pbest(device, policy, state);
}

void generate_weights_slice(vgpu::Device& device, const LaunchPolicy& policy,
                            std::int64_t offset, std::int64_t count,
                            std::uint64_t seed, int iter,
                            vgpu::DeviceArray<float>& l_mat,
                            vgpu::DeviceArray<float>& g_mat) {
  const std::uint64_t l_stream = 2 + 2 * static_cast<std::uint64_t>(iter);
  const std::uint64_t g_stream = l_stream + 1;
  fill_uniform_slice_impl(device, policy, l_mat.data(), offset, count, seed,
                          l_stream, 0.0f, 1.0f);
  fill_uniform_slice_impl(device, policy, g_mat.data(), offset, count, seed,
                          g_stream, 0.0f, 1.0f);
}

}  // namespace fastpso::core
