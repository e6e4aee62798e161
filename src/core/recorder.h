// Shared per-iteration capture/replay scaffolding. core::Optimizer and both
// GPU baselines (gpu_pso, hgpu_pso) construct the recorder and export its
// bookkeeping identically; keeping that glue here means a pipeline cannot
// wire the graph stats and forget the fusion stats (or vice versa).
#pragma once

#include "core/result.h"
#include "vgpu/device.h"
#include "vgpu/graph/graph.h"

namespace fastpso::core {

/// The standard per-iteration recorder: records when graph mode or fusion
/// mode is enabled (FASTPSO_GRAPH / FASTPSO_FUSE) and applies the fusion
/// pass after instantiation when fusion mode is — see vgpu/graph/graph.h.
/// Pipelines whose iteration is already a single fused kernel (the async
/// optimizer) construct IterationRecorder directly with fuse = false.
[[nodiscard]] inline vgpu::graph::IterationRecorder make_iteration_recorder(
    vgpu::Device& device) {
  return vgpu::graph::IterationRecorder(device);
}

/// Copies the recorder's capture/replay and fusion bookkeeping into
/// `result` — the single pairing of Result fields with recorder accessors.
inline void export_recorder_stats(
    const vgpu::graph::IterationRecorder& recorder, Result& result) {
  result.graph = recorder.stats();
  result.fusion = recorder.fusion_stats();
}

}  // namespace fastpso::core
