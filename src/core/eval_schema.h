// The paper's CUDA evaluation-kernel schema (Section 3.2):
//
//   template<typename L>
//   __global__ void evaluation_kernel(int dim, L lambda) {
//     for (int i = blockIdx.x * blockDim.x + threadIdx.x;
//          i < dim; i += blockDim.x * gridDim.x) {
//       lambda(i);
//     }
//   }
//
// This header is the virtual-GPU rendition: both user-defined evaluation
// functions and the built-in problems are launched through this one schema,
// which grid-strides the lambda over the particle index space under the
// resource-aware launch policy.
#pragma once

#include <algorithm>
#include <cstdint>

#include "core/launch_policy.h"
#include "core/objective.h"
#include "vgpu/device.h"
#include "vgpu/parallel.h"
#include "vgpu/prof/prof.h"

namespace fastpso::core {

/// Runs `lambda(i)` for every i in [0, count) on the device, grid-strided.
/// `cost` declares the launch's total work for the performance model.
template <typename L>
void evaluation_kernel(vgpu::Device& device, const LaunchPolicy& policy,
                       std::int64_t count, const vgpu::KernelCostSpec& cost,
                       L&& lambda) {
  const LaunchDecision decision = policy.for_particles(count);
  device.launch(decision.config, cost, [&](const vgpu::ThreadCtx& t) {
    for (std::int64_t i = t.global_id(); i < count; i += t.grid_stride()) {
      lambda(i);
    }
  });
}

/// Evaluates `n` particle rows of `positions` into `out` through the
/// evaluation-kernel schema: `out[i] = (float)fn(positions + i*d, d)`. On
/// the fast path a batched objective runs one devirtualized inner loop per
/// contiguous row range (one dispatch per host worker, identical
/// accounting); otherwise — custom lambda objectives, sanitizer runs, fast
/// path disabled — it falls back to the per-particle fn through
/// evaluation_kernel.
inline void evaluate_positions(vgpu::Device& device,
                               const LaunchPolicy& policy,
                               const Objective& objective,
                               const float* positions, std::int64_t n, int d,
                               const vgpu::KernelCostSpec& cost, float* out) {
  // Profiler-only label: a san::KernelScope here would opt the launch into
  // sanitizer cost audits and change the sanitizer's golden traces.
  vgpu::prof::KernelLabel label("eval/objective");
  // Fusion footprint (vgpu/graph/fusion.h): element i reads its position
  // row and writes its error scalar. account_launch knows no element
  // domain, so both dispatch paths note it explicitly.
  const auto note_footprint = [&] {
    if (device.capturing()) [[unlikely]] {
      device.graph_note_elements(n);
      device.graph_note_uses(
          {{positions, static_cast<double>(n) * d * sizeof(float),
            static_cast<std::int64_t>(d * sizeof(float)), /*write=*/false,
            "positions"},
           {out, static_cast<double>(n) * sizeof(float), sizeof(float),
            /*write=*/true, "perror"}});
    }
  };
  if (vgpu::use_fast_path() && objective.batch_fn) {
    const LaunchDecision decision = policy.for_particles(n);
    device.account_launch(decision.config, cost);
    note_footprint();
    // Batch objectives evaluate particle rows independently (the
    // multi-device particle split already splits a batch mid-stream), so a
    // sub-range dispatch is legal: offer the launch to the cross-job
    // packing engine (vgpu/pack.h; no-op without an attached sink). The
    // span captures a pointer to the objective's batch_fn — the objective
    // outlives the cohort round's flush barrier.
    if (device.pack_offer_range(
            n, cost,
            [batch = &objective.batch_fn, positions, d,
             out](std::int64_t b, std::int64_t e) {
              (*batch)(positions + b * d, static_cast<int>(e - b), d,
                       out + b);
            })) {
      return;
    }
    // Inline, the rows split across host workers (vgpu/parallel.h) once
    // the batch reaches 2 * kHostGrain elements' worth of rows — batch_fn
    // is safe on disjoint row ranges concurrently (core/objective.h). The
    // profiled branch times the same split run.
    const auto run_rows = [&] {
      vgpu::parallel_for(
          n, std::max<std::int64_t>(1, vgpu::kHostGrain / d),
          [&objective, positions, d, out](std::int64_t b, std::int64_t e) {
            objective.batch_fn(positions + b * d, static_cast<int>(e - b), d,
                               out + b);
          });
    };
    if (vgpu::prof::active()) [[unlikely]] {
      Stopwatch wall;
      run_rows();
      device.prof_note_wall(wall.elapsed_s());
      return;
    }
    run_rows();
    return;
  }
  evaluation_kernel(device, policy, n, cost, [&](std::int64_t i) {
    out[i] = static_cast<float>(objective.fn(positions + i * d, d));
  });
  note_footprint();
}

}  // namespace fastpso::core
