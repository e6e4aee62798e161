// Multi-device FastPSO (paper Section 3.5, "Supporting multiple GPUs"),
// built over vgpu/comm (DESIGN.md §12).
//
// The shards live in a comm::DeviceGroup and exchange through an
// NCCL-style modeled collective layer (ring allreduce of the (err, rank)
// pair + ring broadcast of the winning gbest row). Collectives run on a
// dedicated per-device comm stream, so the gbest-independent work of the
// next step (the L/G weight fills) overlaps the exchange on stream 0 —
// visible as parallel lanes in the per-device Chrome traces.
//
// The paper's two strategies, with semantics pinned by
// tests/test_multi_gpu.cpp:
//   kTileMatrix    the state matrices are sharded by rows and the gbest
//                  reduction completes across devices every iteration.
//                  Bitwise-identical to single-device FastPSO (gbest
//                  value, position, history) for any device count: all
//                  randoms come from the global element index space
//                  (core/init.h slice fills) and the rank-ordered
//                  collective reduction reproduces the global argmin
//                  tie-break (lowest particle index wins).
//   kParticleSplit each device runs an independent sub-swarm with its own
//                  seed and local global best; the group best is exchanged
//                  every sync_interval iterations (the paper's asynchronous
//                  update, rendered deterministic) and adopted only by
//                  ranks it beats. On one device it equals single-device
//                  FastPSO bit for bit; on more, literal pins hold its
//                  trajectory.
//
// Only the synchronous gbest pipeline is sharded: the constructor rejects
// the ring topology, asynchronous updates, overlap_init and early stopping.
//
// Modeled time: collectives advance the per-device comm streams, so
// Result::modeled_seconds == max over devices of device_seconds() — there
// is no separate exchange term (asserted after every run).
#pragma once

#include <memory>
#include <vector>

#include "core/objective.h"
#include "core/params.h"
#include "core/result.h"
#include "vgpu/comm/comm.h"

namespace fastpso::core {

enum class MultiGpuStrategy {
  kParticleSplit,
  kTileMatrix,
};

const char* to_string(MultiGpuStrategy strategy);

struct MultiDeviceParams {
  PsoParams pso;
  int devices = 2;
  MultiGpuStrategy strategy = MultiGpuStrategy::kTileMatrix;
  /// Iterations between global-best exchanges under kParticleSplit.
  int sync_interval = 10;
};

/// FastPSO across a DeviceGroup of identical virtual devices joined by a
/// comm::Communicator.
class MultiDeviceOptimizer {
 public:
  explicit MultiDeviceOptimizer(MultiDeviceParams params,
                                vgpu::GpuSpec spec = vgpu::tesla_v100());

  Result optimize(const Objective& objective);

  /// Modeled seconds per device for the last run. Result::modeled_seconds
  /// is the max of these (collective time is inside each device's comm
  /// stream, not a separate term).
  [[nodiscard]] const std::vector<double>& device_seconds() const {
    return device_seconds_;
  }
  /// Modeled collective seconds accounted on each device in the last run.
  [[nodiscard]] const std::vector<double>& comm_seconds() const {
    return comm_seconds_;
  }
  /// Every collective of the last run, in issue order.
  [[nodiscard]] const std::vector<vgpu::comm::CollectiveRecord>& collectives()
      const {
    return collectives_;
  }
  /// The device group of the last run (per-device counters and — under
  /// FASTPSO_PROF — per-device profiles for trace export). Null before the
  /// first optimize() call.
  [[nodiscard]] const vgpu::comm::DeviceGroup* group() const {
    return group_.get();
  }

 private:
  MultiDeviceParams params_;
  vgpu::GpuSpec spec_;
  std::unique_ptr<vgpu::comm::DeviceGroup> group_;
  std::unique_ptr<vgpu::comm::Communicator> comm_;
  std::vector<double> device_seconds_;
  std::vector<double> comm_seconds_;
  std::vector<vgpu::comm::CollectiveRecord> collectives_;

  Result optimize_tile_matrix(const Objective& objective);
  Result optimize_particle_split(const Objective& objective);
};

}  // namespace fastpso::core
