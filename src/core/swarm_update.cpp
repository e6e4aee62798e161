#include "core/swarm_update.h"

#include <algorithm>
#include <cmath>

#include "core/kernels_registry.h"
#include "vgpu/block.h"
#include "vgpu/parallel.h"
#include "vgpu/san/tracked.h"
#include "vgpu/wmma.h"

namespace fastpso::core {
namespace {

namespace san = vgpu::san;

// The canonical per-element update lives in core/kernels_registry.h so the
// registered update kernels run the exact code every variant here runs.
using kernels::update_element;

/// DRAM traffic + flops of one full swarm update over `elements` items.
/// Reads: V, P, L, G, pbest_pos (5 matrices) + the gbest row (d floats,
/// broadcast through cache). Writes: V', P'.
vgpu::KernelCostSpec update_cost(std::int64_t elements, int d, int barriers,
                                 bool tensor) {
  vgpu::KernelCostSpec cost;
  cost.flops = 10.0 * static_cast<double>(elements);
  cost.dram_read_bytes =
      (5.0 * static_cast<double>(elements) + d) * sizeof(float);
  cost.dram_write_bytes = 2.0 * static_cast<double>(elements) * sizeof(float);
  cost.barriers = barriers;
  cost.uses_tensor_cores = tensor;
  return cost;
}

void update_global(vgpu::Device& device, const LaunchPolicy& policy,
                   SwarmState& state, const float* l_mat, const float* g_mat,
                   const UpdateCoefficients& coeff) {
  const std::int64_t elements = state.elements();
  const kernels::SwarmUpdateGlobalKernel::Args args{
      state.velocities.data(), state.positions.data(), l_mat,    g_mat,
      state.pbest_pos.data(),  state.gbest_pos.data(), state.d, coeff};
  san::KernelScope scope("swarm_update/global");
  device.launch_kernel<kernels::SwarmUpdateGlobalKernel>(
      policy.for_elements(elements).config,
      update_cost(elements, state.d, 0, false), elements, args);
}

void update_shared(vgpu::Device& device, const LaunchPolicy& policy,
                   SwarmState& state, const float* l_mat, const float* g_mat,
                   const UpdateCoefficients& coeff) {
  const int n = state.n;
  const int d = state.d;
  const std::int64_t elements = state.elements();
  // tile^2 threads per block must stay within the device limit.
  const int max_tile = static_cast<int>(
      std::sqrt(static_cast<double>(device.spec().max_threads_per_block)));
  const int tile = std::clamp(kTileSize, 2, max_tile);
  const std::int64_t tile_rows = (n + tile - 1) / tile;
  const std::int64_t tile_cols = (d + tile - 1) / tile;
  const std::int64_t tiles = tile_rows * tile_cols;

  // One block per tile (grid-stride over tiles), tile^2 threads each.
  vgpu::LaunchConfig cfg;
  cfg.block = tile * tile;
  cfg.grid = std::min<std::int64_t>(
      tiles, policy.thread_cap() / cfg.block + (policy.thread_cap() % cfg.block != 0));
  cfg.grid = std::max<std::int64_t>(cfg.grid, 1);
  // Two __syncthreads per tile trip; the busiest block runs
  // ceil(tiles / grid) trips.
  const std::int64_t trips = (tiles + cfg.grid - 1) / cfg.grid;
  const vgpu::KernelCostSpec cost =
      update_cost(elements, d, static_cast<int>(2 * trips), false);

  san::KernelScope scope("swarm_update/shared");
  if (vgpu::use_fast_path()) {
    // Flat tiles: staging a tile into shared memory and writing it back
    // moves values without changing them, and each element's update reads
    // only its own tile slot and gbest column — so the whole launch is the
    // global update's row-segment span over the same elements, accounted
    // as the tiled block launch (same cfg and barriers).
    // Like launch_kernel's inline run, the span splits across host workers
    // (vgpu/parallel.h) at 2 * kHostGrain elements.
    const kernels::SwarmUpdateGlobalKernel::Args update_args{
        state.velocities.data(), state.positions.data(), l_mat,    g_mat,
        state.pbest_pos.data(),  state.gbest_pos.data(), d,        coeff};
    device.launch_inline(cfg, cost, [&] {
      vgpu::parallel_for(
          elements, vgpu::kHostGrain,
          [&update_args](std::int64_t b, std::int64_t e) {
            vgpu::run_span<kernels::SwarmUpdateGlobalKernel>(update_args, b,
                                                             e);
          });
    });
    return;
  }

  const auto velocities =
      san::track(state.velocities.data(), elements, "velocities");
  const auto positions =
      san::track(state.positions.data(), elements, "positions");
  const auto l = san::track(l_mat, elements, "l_mat");
  const auto g = san::track(g_mat, elements, "g_mat");
  const auto pbest_pos =
      san::track(state.pbest_pos.data(), elements, "pbest_pos");
  const auto gbest_pos = san::track(state.gbest_pos.data(),
                                    static_cast<std::size_t>(d), "gbest_pos");
  san::expect_writes_exactly_once(velocities);
  san::expect_writes_exactly_once(positions);

  device.launch_blocks(
      cfg, cost,
      [&](vgpu::BlockCtx& blk) {
        const int tile_elems = tile * tile;
        auto sh_v = san::track_shared(blk.shared_array<float>(tile_elems),
                                      "sh_v");
        auto sh_p = san::track_shared(blk.shared_array<float>(tile_elems),
                                      "sh_p");
        auto sh_l = san::track_shared(blk.shared_array<float>(tile_elems),
                                      "sh_l");
        auto sh_g = san::track_shared(blk.shared_array<float>(tile_elems),
                                      "sh_g");
        auto sh_pb = san::track_shared(blk.shared_array<float>(tile_elems),
                                       "sh_pb");
        auto sh_gb = san::track_shared(blk.shared_array<float>(tile),
                                       "sh_gb");

        for (std::int64_t t_idx = blk.block_idx(); t_idx < tiles;
             t_idx += blk.grid_dim()) {
          const std::int64_t row0 = (t_idx / tile_cols) * tile;
          const std::int64_t col0 = (t_idx % tile_cols) * tile;
          const int rows = static_cast<int>(
              std::min<std::int64_t>(tile, n - row0));
          const int cols = static_cast<int>(
              std::min<std::int64_t>(tile, d - col0));

          // Phase 1: stage the tile into shared memory.
          blk.for_each_thread([&](const vgpu::ThreadCtx& t) {
            const int r = t.thread_idx / tile;
            const int c = t.thread_idx % tile;
            if (r < rows && c < cols) {
              const std::int64_t src = (row0 + r) * d + (col0 + c);
              const int dst = r * tile + c;
              sh_v[dst] = velocities[src];
              sh_p[dst] = positions[src];
              sh_l[dst] = l[src];
              sh_g[dst] = g[src];
              sh_pb[dst] = pbest_pos[src];
            }
            if (r == 0 && c < cols) {
              sh_gb[c] = gbest_pos[col0 + c];
            }
          });
          blk.sync();

          // Phase 2: element-wise update inside shared memory.
          blk.for_each_thread([&](const vgpu::ThreadCtx& t) {
            const int r = t.thread_idx / tile;
            const int c = t.thread_idx % tile;
            if (r < rows && c < cols) {
              const int idx = r * tile + c;
              update_element(sh_v[idx], sh_p[idx], sh_l[idx], sh_g[idx],
                             sh_pb[idx], sh_gb[c], coeff);
            }
          });
          blk.sync();

          // Phase 3: write the tile back to global memory.
          blk.for_each_thread([&](const vgpu::ThreadCtx& t) {
            const int r = t.thread_idx / tile;
            const int c = t.thread_idx % tile;
            if (r < rows && c < cols) {
              const std::int64_t dst = (row0 + r) * d + (col0 + c);
              const int src = r * tile + c;
              velocities[dst] = sh_v[src];
              positions[dst] = sh_p[src];
            }
          });
        }
      });
}

void update_tensor(vgpu::Device& device, const LaunchPolicy& policy,
                   SwarmState& state, const float* l_mat, const float* g_mat,
                   const UpdateCoefficients& coeff) {
  namespace wm = vgpu::wmma;
  const int n = state.n;
  const int d = state.d;
  const std::int64_t elements = state.elements();
  const std::int64_t tile_rows = (n + wm::kFragDim - 1) / wm::kFragDim;
  const std::int64_t tile_cols = (d + wm::kFragDim - 1) / wm::kFragDim;
  const std::int64_t tiles = tile_rows * tile_cols;

  // One warp per tile: the fragment ops below are warp-level primitives.
  vgpu::LaunchConfig cfg;
  cfg.block = device.spec().warp_size;
  cfg.grid = std::min<std::int64_t>(tiles,
                                    policy.thread_cap() / cfg.block);
  cfg.grid = std::max<std::int64_t>(cfg.grid, 1);

  const auto velocities =
      san::track(state.velocities.data(), elements, "velocities");
  const auto positions =
      san::track(state.positions.data(), elements, "positions");
  const auto l = san::track(l_mat, elements, "l_mat");
  const auto g = san::track(g_mat, elements, "g_mat");
  const auto pbest_pos =
      san::track(state.pbest_pos.data(), elements, "pbest_pos");
  const auto gbest_pos = san::track(state.gbest_pos.data(),
                                    static_cast<std::size_t>(d), "gbest_pos");
  san::expect_writes_exactly_once(velocities);
  san::expect_writes_exactly_once(positions);

  san::KernelScope scope("swarm_update/tensor");
  // No __syncthreads: the *_sync fragment ops are warp-level, not block
  // barriers.
  device.launch_blocks(
      cfg, update_cost(elements, d, 0, true), [&](vgpu::BlockCtx& blk) {
        for (std::int64_t tile = blk.block_idx(); tile < tiles;
             tile += blk.grid_dim()) {
          const std::int64_t row0 = (tile / tile_cols) * wm::kFragDim;
          const std::int64_t col0 = (tile % tile_cols) * wm::kFragDim;
          const int rows = static_cast<int>(
              std::min<std::int64_t>(wm::kFragDim, n - row0));
          const int cols = static_cast<int>(
              std::min<std::int64_t>(wm::kFragDim, d - col0));
          const std::int64_t base = row0 * d + col0;

          wm::Fragment<float> fv;
          wm::Fragment<float> fp;
          wm::Fragment<float> fl;
          wm::Fragment<float> fg;
          wm::Fragment<float> fpb;
          wm::Fragment<float> feg;
          san::load_matrix_sync(fv, velocities, base, d, rows, cols);
          san::load_matrix_sync(fp, positions, base, d, rows, cols);
          san::load_matrix_sync(fl, l, base, d, rows, cols);
          san::load_matrix_sync(fg, g, base, d, rows, cols);
          san::load_matrix_sync(fpb, pbest_pos, base, d, rows, cols);
          // Eg tile: every row is the gbest slice — a broadcast load (ld=0).
          san::load_matrix_sync(feg, gbest_pos, col0, 0, wm::kFragDim, cols);

          // t1 = c1*(pbest - P); acc = L .* t1
          wm::Fragment<float> t1;
          wm::scale_add_sync(t1, coeff.c1, fpb, -coeff.c1, fp);
          wm::Fragment<float> acc;
          wm::fill_fragment(acc, 0.0f);
          // t2 = c2*(Eg - P); acc += G .* t2
          wm::Fragment<float> t2;
          wm::scale_add_sync(t2, coeff.c2, feg, -coeff.c2, fp);
          if (coeff.mixed_precision) {
            // Volta semantics: FP16 multiplicands, FP32 accumulate.
            wm::mma_elementwise_f16_sync(acc, fl, t1, acc);
            wm::mma_elementwise_f16_sync(acc, fg, t2, acc);
          } else {
            wm::mma_elementwise_sync(acc, fl, t1, acc);
            wm::mma_elementwise_sync(acc, fg, t2, acc);
          }
          // V' = omega*V + acc
          wm::Fragment<float> fvn;
          wm::scale_add_sync(fvn, coeff.omega, fv, 1.0f, acc);

          // Epilogue: velocity clamp (Eq. 5) + position integrate + clamp.
          san::count_flops(10.0 * rows * cols);
          for (int r = 0; r < rows; ++r) {
            for (int c = 0; c < cols; ++c) {
              float nv = fvn.at(r, c);
              if (coeff.vmax > 0.0f) {
                nv = std::clamp(nv, -coeff.vmax, coeff.vmax);
              }
              fvn.at(r, c) = nv;
              float np = fp.at(r, c) + nv;
              if (coeff.clamp_position) {
                np = std::clamp(np, coeff.pos_lower, coeff.pos_upper);
              }
              fp.at(r, c) = np;
            }
          }

          san::store_matrix_sync(velocities, base, fvn, d, rows, cols);
          san::store_matrix_sync(positions, base, fp, d, rows, cols);
        }
      });
}

}  // namespace

UpdateCoefficients make_coefficients(const PsoParams& params, double lower,
                                     double upper) {
  UpdateCoefficients coeff{};
  coeff.omega = params.omega;
  coeff.c1 = params.c1;
  coeff.c2 = params.c2;
  coeff.vmax = params.velocity_clamp
                   ? params.vmax_fraction *
                         static_cast<float>(upper - lower)
                   : 0.0f;
  coeff.pos_lower = static_cast<float>(lower);
  coeff.pos_upper = static_cast<float>(upper);
  coeff.clamp_position = params.position_clamp;
  coeff.mixed_precision = params.mixed_precision;
  return coeff;
}

void swarm_update_ring(vgpu::Device& device, const LaunchPolicy& policy,
                       SwarmState& state,
                       const vgpu::DeviceArray<float>& l_mat,
                       const vgpu::DeviceArray<float>& g_mat,
                       const UpdateCoefficients& coeff,
                       const std::int32_t* nbest_idx) {
  const std::int64_t elements = state.elements();
  const int d = state.d;
  const std::int64_t n = state.n;
  // The attractor is a gather out of pbest_pos, which this kernel already
  // streams in full — under the perfect-cache (unique-address) convention
  // the gather adds no pbest traffic, only the neighborhood index array.
  // The gbest broadcast row of the global variant is not read here.
  vgpu::KernelCostSpec cost = update_cost(elements, d, 0, false);
  cost.dram_read_bytes += static_cast<double>(n) * sizeof(std::int32_t) -
                          static_cast<double>(d) * sizeof(float);
  const kernels::SwarmUpdateRingKernel::Args args{
      state.velocities.data(), state.positions.data(), l_mat.data(),
      g_mat.data(),            state.pbest_pos.data(), nbest_idx,
      d,                       coeff};
  san::KernelScope scope("swarm_update/ring");
  device.launch_kernel<kernels::SwarmUpdateRingKernel>(
      policy.for_elements(elements).config, cost, elements, args);
}

UpdateCoefficients coefficients_for_iter(const UpdateCoefficients& base,
                                         const PsoParams& params, int iter) {
  UpdateCoefficients coeff = base;
  if (coeff.vmax > 0.0f && params.adaptive_velocity_bound &&
      params.max_iter > 1) {
    const float progress =
        static_cast<float>(iter) / static_cast<float>(params.max_iter);
    const float anneal =
        std::max(params.vmax_final_fraction, 1.0f - progress);
    coeff.vmax *= anneal;
  }
  return coeff;
}

void swarm_update(vgpu::Device& device, const LaunchPolicy& policy,
                  SwarmState& state, const vgpu::DeviceArray<float>& l_mat,
                  const vgpu::DeviceArray<float>& g_mat,
                  const UpdateCoefficients& coeff,
                  UpdateTechnique technique) {
  switch (technique) {
    case UpdateTechnique::kGlobalMemory:
      update_global(device, policy, state, l_mat.data(), g_mat.data(), coeff);
      return;
    case UpdateTechnique::kSharedMemory:
      update_shared(device, policy, state, l_mat.data(), g_mat.data(), coeff);
      return;
    case UpdateTechnique::kTensorCore:
      update_tensor(device, policy, state, l_mat.data(), g_mat.data(), coeff);
      return;
  }
  FASTPSO_UNREACHABLE("unknown update technique");
}

}  // namespace fastpso::core
