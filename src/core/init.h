// Step (i): swarm initialization and per-iteration random-weight generation
// (paper Section 3.1).
//
// All randomness is produced by the counter-based Philox generator, so every
// element of every matrix is computed independently by its own thread — the
// "parallel techniques to initialize swarm particles with fast random number
// generation" the paper builds on Thrust. Streams are laid out as:
//
//   stream 0            — initial positions
//   stream 1            — initial velocities
//   stream 2 + 2*iter   — L (cognitive weights) of iteration `iter`
//   stream 3 + 2*iter   — G (social weights) of iteration `iter`
//
// which makes runs bit-reproducible for a given seed regardless of launch
// shape.
#pragma once

#include <cstdint>

#include "core/launch_policy.h"
#include "core/swarm_state.h"
#include "vgpu/buffer.h"
#include "vgpu/device.h"

namespace fastpso::core {

/// Approximate FLOP cost of producing one Philox-derived uniform float
/// (10 rounds / 4 lanes, integer ops counted as flops for the model).
inline constexpr double kPhiloxFlopsPerValue = 13.0;

/// Initializes positions uniformly in [lower, upper] and velocities in
/// [-vmax, vmax]; resets pbest/gbest bookkeeping.
void initialize_swarm(vgpu::Device& device, const LaunchPolicy& policy,
                      SwarmState& state, std::uint64_t seed, float lower,
                      float upper, float vmax);

/// Fills the random-weight matrices L and G for iteration `iter`
/// (components ~ U(0,1), Eq. 1).
void generate_weights(vgpu::Device& device, const LaunchPolicy& policy,
                      std::int64_t elements, std::uint64_t seed, int iter,
                      vgpu::DeviceArray<float>& l_mat,
                      vgpu::DeviceArray<float>& g_mat);

// --- sharded (multi-device) variants ---------------------------------------
// A shard owning particles [begin, begin+count) draws GLOBAL elements
// [begin*d, (begin+count)*d) of the whole-swarm fills: the same seed, the
// same stream, the element's global index as the Philox counter. Sharded
// randoms are therefore bitwise-equal to the corresponding slice of a
// single-device run for any shard layout — the invariance tile-matrix
// sharding (core/multi_device.h) and its differential tests rest on.

/// Writes global elements [offset, offset+count) of the logical array
/// drawn from `stream` into out[0, count). Shards may start mid-Philox
/// block; only in-range lanes are written.
void fill_uniform_slice(vgpu::Device& device, const LaunchPolicy& policy,
                        float* out, std::int64_t offset, std::int64_t count,
                        std::uint64_t seed, std::uint64_t stream, float lo,
                        float hi);

/// initialize_swarm for a shard whose storage holds global elements
/// [offset, offset+state.elements()): positions/velocities are slices of
/// the whole-swarm fills; pbest/gbest bookkeeping resets as usual.
void initialize_swarm_slice(vgpu::Device& device, const LaunchPolicy& policy,
                            SwarmState& state, std::uint64_t seed,
                            std::int64_t offset, float lower, float upper,
                            float vmax);

/// generate_weights for a shard: L/G receive global elements
/// [offset, offset+count) of iteration `iter`'s whole-swarm weight fills.
void generate_weights_slice(vgpu::Device& device, const LaunchPolicy& policy,
                            std::int64_t offset, std::int64_t count,
                            std::uint64_t seed, int iter,
                            vgpu::DeviceArray<float>& l_mat,
                            vgpu::DeviceArray<float>& g_mat);

}  // namespace fastpso::core
