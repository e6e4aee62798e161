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
// which grid-strides the objective over the particle index space. Batched
// objectives run as a registered kernel (EvalKernel, through
// Device::launch_kernel); a custom objective with only a per-particle fn
// runs one virtual thread per particle.
#pragma once

#include <cstdint>

#include "core/objective.h"
#include "vgpu/device.h"
#include "vgpu/parallel.h"

namespace fastpso::core {

/// The modeled cost of evaluating `n` particle rows of dimension `d`: the
/// objective's declared operations per row, one read of every position
/// and one write of every error.
inline vgpu::KernelCostSpec eval_cost(const Objective& objective,
                                      std::int64_t n, int d) {
  vgpu::KernelCostSpec cost;
  cost.flops = objective.cost.flops(d) * static_cast<double>(n);
  cost.transcendentals =
      objective.cost.transcendentals(d) * static_cast<double>(n);
  cost.dram_read_bytes = static_cast<double>(n) * d * sizeof(float);
  cost.dram_write_bytes = static_cast<double>(n) * sizeof(float);
  return cost;
}

/// eval/objective as a registered kernel (core/kernels_registry.h
/// contract): element i evaluates particle row i through the objective's
/// per-particle fn; the span runs batch_fn over a contiguous row range,
/// which the Objective::batch_fn concurrency contract makes legal on any
/// sub-range. The objective must outlive the launch — under packing, the
/// cohort round's flush barrier.
struct EvalKernel {
  struct Args {
    const Objective* objective;
    const float* positions;
    int d;
    float* out;
  };
  static void element(const Args& a, std::int64_t i) {
    a.out[i] =
        static_cast<float>(a.objective->fn(a.positions + i * a.d, a.d));
  }
  static void span(const void* args, std::int64_t begin, std::int64_t end) {
    const Args& a = *static_cast<const Args*>(args);
    a.objective->batch_fn(a.positions + begin * a.d,
                          static_cast<int>(end - begin), a.d,
                          a.out + begin);
  }
  static std::int64_t grain(const Args& a) { return vgpu::row_grain(a.d); }
};

/// Evaluates `n` particle rows of `positions` into `out` through the
/// evaluation-kernel schema: `out[i] = (float)fn(positions + i*d, d)`,
/// launched with `cfg` and accounted with `cost`. A batched objective goes
/// through launch_kernel<EvalKernel>. A custom objective with only `fn`
/// runs it per virtual thread: fn has no concurrency contract, so that
/// launch is never split across host workers or deferred.
inline void evaluate_positions(vgpu::Device& device,
                               const vgpu::LaunchConfig& cfg,
                               const Objective& objective,
                               const float* positions, std::int64_t n, int d,
                               const vgpu::KernelCostSpec& cost, float* out) {
  const EvalKernel::Args args{&objective, positions, d, out};
  if (objective.batch_fn) {
    device.launch_kernel<EvalKernel>(cfg, cost, n, args);
  } else {
    device.launch(cfg, cost, [&](const vgpu::ThreadCtx& t) {
      for (std::int64_t i = t.global_id(); i < n; i += t.grid_stride()) {
        EvalKernel::element(args, i);
      }
    });
  }
}

}  // namespace fastpso::core
