// GPU resource-aware thread creation (paper Section 3.3/3.4, Equation 3).
//
// When n*d is large, launching one thread per element would "lead to extra
// cost on thread creation or running out of GPU memory" (Section 3.4);
// FastPSO instead caps the launch at what the device can keep resident and
// assigns each thread a workload of tw = ceil(elements / cap) elements via a
// grid-stride loop. This header computes that cap from the device spec.
#pragma once

#include <cstdint>

#include "vgpu/device.h"

namespace fastpso::core {

/// Resolved launch decision for an element-wise step.
struct LaunchDecision {
  vgpu::LaunchConfig config;
  std::int64_t elements = 0;
  /// Thread workload tw (Eq. 3): elements each thread processes.
  std::int64_t thread_workload = 1;
};

/// Computes launch shapes under the resource-aware cap.
class LaunchPolicy {
 public:
  /// `block` is the CUDA block size used for element-wise kernels.
  /// `thread_cap_override` (> 0) replaces the resource-derived cap — used
  /// by the launch-policy ablation bench; 0 keeps Eq. 3's derivation.
  explicit LaunchPolicy(const vgpu::GpuSpec& spec, int block = 256,
                        std::int64_t thread_cap_override = 0);

  /// Maximum threads the device keeps resident (the "mem" resource bound of
  /// Eq. 3, instantiated as SM count x max resident threads per SM).
  [[nodiscard]] std::int64_t thread_cap() const { return thread_cap_; }

  /// Launch shape for an element-wise kernel over `elements` items:
  /// one thread per element up to the cap, grid-stride beyond it.
  [[nodiscard]] LaunchDecision for_elements(std::int64_t elements) const;

  /// Launch shape for a per-particle kernel (pbest update, evaluation):
  /// one thread per particle up to the cap.
  [[nodiscard]] LaunchDecision for_particles(std::int64_t particles) const {
    return for_elements(particles);
  }

  [[nodiscard]] int block() const { return block_; }

 private:
  int block_;
  std::int64_t thread_cap_;
};

}  // namespace fastpso::core
