// Optimization result and timing report shared by all PSO implementations
// in this repository (FastPSO, the CPU versions and the GPU baselines), so
// the benchmark harnesses can compare them uniformly.
#pragma once

#include <cmath>
#include <vector>

#include "common/stopwatch.h"
#include "vgpu/device.h"
#include "vgpu/prof/prof.h"

namespace fastpso::core {

/// Outcome of one optimizer run.
struct Result {
  double gbest_value = 0.0;
  std::vector<float> gbest_position;
  int iterations = 0;

  /// gbest after each completed iteration (one entry per iteration run);
  /// the differential tests compare these trajectories across
  /// implementations.
  std::vector<float> gbest_history;

  /// Real seconds on this machine (transparency metric).
  double wall_seconds = 0.0;
  /// Seconds under the paper-machine performance model (the
  /// paper-comparable metric; DESIGN.md §5).
  double modeled_seconds = 0.0;

  /// Per-step breakdowns keyed "init"/"eval"/"pbest"/"gbest"/"swarm".
  TimeBreakdown wall_breakdown;
  TimeBreakdown modeled_breakdown;

  /// Device activity counters (zeroed for CPU-only implementations).
  vgpu::DeviceCounters counters;

  /// Event timeline collected while FASTPSO_PROF was enabled (empty
  /// otherwise). CPU implementations record modeled host regions into it
  /// via Profile::add_host so the Figure 5 pipeline has one source.
  vgpu::prof::Profile profile;

  /// |gbest - optimum| against a known optimum value.
  [[nodiscard]] double error_to(double optimum) const {
    return std::abs(gbest_value - optimum);
  }
};

}  // namespace fastpso::core
