#include "core/launch_policy.h"

#include <algorithm>

#include "common/check.h"

namespace fastpso::core {
namespace {

/// Max resident threads per SM on Volta-class devices.
constexpr std::int64_t kResidentThreadsPerSm = 2048;

}  // namespace

LaunchPolicy::LaunchPolicy(const vgpu::GpuSpec& spec, int block,
                           std::int64_t thread_cap_override)
    : block_(block) {
  FASTPSO_CHECK(block > 0 && block <= spec.max_threads_per_block);
  const std::int64_t cap = thread_cap_override > 0
                               ? thread_cap_override
                               : static_cast<std::int64_t>(spec.sm_count) *
                                     kResidentThreadsPerSm;
  // Keep the cap block-aligned so grids are exact.
  thread_cap_ = std::max<std::int64_t>(block_, cap / block_ * block_);
}

LaunchDecision LaunchPolicy::for_elements(std::int64_t elements) const {
  FASTPSO_CHECK(elements > 0);
  LaunchDecision decision;
  decision.elements = elements;
  const std::int64_t wanted = std::min(elements, thread_cap_);
  decision.config.block = block_;
  decision.config.grid = (wanted + block_ - 1) / block_;
  const std::int64_t threads = decision.config.total_threads();
  decision.thread_workload = (elements + threads - 1) / threads;
  return decision;
}

}  // namespace fastpso::core
