// Optimization result and timing report shared by all PSO implementations
// in this repository (FastPSO, the CPU versions and the GPU baselines), so
// the benchmark harnesses can compare them uniformly.
#pragma once

#include <cmath>
#include <vector>

#include "common/stopwatch.h"
#include "vgpu/device.h"
#include "vgpu/graph/graph.h"
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

  /// Capture/replay bookkeeping when FASTPSO_GRAPH was enabled (all-default
  /// otherwise). modeled_seconds_saved is the amortization credit the graph
  /// model reports; it is never folded into modeled_seconds.
  vgpu::graph::GraphStats graph;

  /// Kernel-fusion bookkeeping when FASTPSO_FUSE was enabled (all-default
  /// otherwise). Like GraphStats, reported only — never folded into
  /// modeled_seconds or the eager counters.
  vgpu::graph::FusionStats fusion;

  /// Graph-mode modeled seconds: eager modeled time minus the amortized
  /// launch overhead a CUDA-Graph replay would save.
  [[nodiscard]] double graph_modeled_seconds() const {
    return modeled_seconds - graph.modeled_seconds_saved;
  }

  /// Fused-graph modeled seconds: graph_modeled_seconds further reduced by
  /// the kernel-fusion saving (fewer launches + elided intermediate
  /// traffic). The fusion credit is computed net of the graph credit, so
  /// the two compose without double counting.
  [[nodiscard]] double fused_modeled_seconds() const {
    return modeled_seconds - graph.modeled_seconds_saved -
           fusion.modeled_seconds_saved;
  }

  /// |gbest - optimum| against a known optimum value.
  [[nodiscard]] double error_to(double optimum) const {
    return std::abs(gbest_value - optimum);
  }
};

}  // namespace fastpso::core
