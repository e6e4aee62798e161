// Executed cross-job batch packing for the serve layer (DESIGN.md §10).
//
// PR 6's Batcher *priced* what packing a same-shape cohort's launches would
// save; this engine executes it. Each scheduling round, the scheduler steps
// a replaying cohort in lockstep (JobRun::step_front/middle/back) with a
// CohortQueue attached as the device's PackSink: every matched element
// launch is deferred onto its job's lane (accounting already done through
// the job's own replay session — deferral moves execution only), and at
// each substep barrier the queue rewrites the cohort's lanes into per-node
// packed dispatches:
//
//   * block-per-job packing: the k jobs' blocks ride one launch with
//     grid = k x per-job blocks; a per-block job-index indirection table
//     routes each packed block to its job's element chunk (the same
//     replication trick the paper's warp-level kernels use in a launch).
//   * warp-per-job sub-packing: shapes whose per-job thread utilization
//     sits below a warp-utilization threshold (tiny swarms that leave most
//     of a block idle) are packed at warp granularity instead — several
//     jobs share one block, each owning ceil(n/32) warps — so the packed
//     launch keeps fewer, fuller blocks resident.
//
// Per-job RNG streams, pools and accounting are untouched: cohort jobs own
// disjoint buffers and element bodies are order-independent across
// elements, so packed execution is bitwise-equal-to-solo by construction.
// The credit (sum of member-accounted seconds minus the packed launch's
// modeled price) is *executed*, not counterfactual: a deferred launch's
// stream-clock advance is retracted at offer time and the merged dispatch
// commits its packed price to the member streams jointly (vgpu
// packed-timeline hooks), so makespan and job latency genuinely drop —
// while every job's own counters, modeled seconds and breakdown stay
// byte-identical to solo. batch_modeled_seconds_saved reports the realized
// saving, still never folded into any job's numbers.
#pragma once

#include <cstdint>
#include <vector>

#include "vgpu/graph/graph.h"
#include "vgpu/pack.h"
#include "vgpu/perf_model.h"

namespace fastpso::vgpu {
class Device;
}

namespace fastpso::serve {

/// Per-job thread utilization (elements / (grid x block)) below which a
/// node is packed warp-per-job instead of block-per-job.
inline constexpr double kWarpThreshold = 0.5;
/// Jobs per packed dispatch; larger cohorts split into chunks this size.
inline constexpr int kMaxCohort = 16;

/// FASTPSO_SERVE_PACK=1 — the scheduler's default for executing (rather
/// than only pricing) cross-job packing. Read once per scheduler.
[[nodiscard]] bool pack_enabled_from_env();

/// What one packed cohort round did (CohortQueue::take_round).
struct PackRoundStats {
  std::uint64_t deferred = 0;       ///< launches deferred onto lanes
  std::uint64_t dispatches = 0;     ///< packed cohort dispatches issued
  std::uint64_t warp_dispatches = 0;  ///< subset packed warp-per-job
  std::uint64_t inline_spans = 0;   ///< deferred spans run by lane flushes
  double executed_saved_seconds = 0;  ///< executed packing credit
};

/// The serve layer's PackSink: one lane per cohort job. The scheduler
/// brackets each job's substep with set_lane(job), so Device offers land on
/// the right lane; flush_barrier() packs and executes everything deferred
/// across the cohort, grouped by replay node index.
class CohortQueue : public vgpu::PackSink {
 public:
  explicit CohortQueue(const vgpu::GpuPerfModel& perf) : perf_(perf) {}

  CohortQueue(const CohortQueue&) = delete;
  CohortQueue& operator=(const CohortQueue&) = delete;

  /// Opens a cohort round over `exec` (the shape's cached graph — node
  /// indices key the packing) with `lanes` member jobs on `device` (the
  /// clocks merged dispatches and inline flushes settle against).
  void begin_round(vgpu::Device& device, const vgpu::graph::GraphExec& exec,
                   int lanes);

  /// Routes subsequent offers to `lane` (-1: none — offers are declined
  /// and flush_lane is a no-op, which is the safe scheduler-context state).
  /// `stream` is the lane job's stream: deferred launches' retracted time
  /// settles back onto it (vgpu packed-timeline hooks).
  void set_lane(int lane, int stream = 0) {
    current_ = lane;
    if (lane >= 0) {
      lane_streams_[static_cast<std::size_t>(lane)] = stream;
    }
  }

  // -- vgpu::PackSink -------------------------------------------------------
  bool offer(int node_index, std::int64_t n_elems,
             const vgpu::KernelCostSpec& cost, double seconds,
             const vgpu::PackSpan& span) override;
  /// Executes the current lane's pending spans in offer order (the device
  /// calls this before any non-deferrable op so per-job ordering holds).
  void flush_lane() override;

  /// Substep barrier: packs every lane's pending spans into per-node cohort
  /// dispatches on `device` and executes them. Lanes are merged by node
  /// index (each lane's entries are in replay order, so per-job program
  /// order is preserved); groups larger than kMaxCohort split into chunks.
  void flush_barrier(vgpu::Device& device);

  /// Closes the round: checks every lane drained, returns the round's
  /// stats and resets them.
  PackRoundStats take_round();

 private:
  struct Entry {
    int node_index = -1;
    int stream = 0;  ///< the owed stream time's destination
    std::int64_t n_elems = 0;
    vgpu::KernelCostSpec cost;
    double seconds = 0;
    vgpu::PackSpan span;
  };

  void dispatch_group(vgpu::Device& device, int node_index,
                      const Entry* const* members, int k);

  const vgpu::GpuPerfModel& perf_;
  vgpu::Device* device_ = nullptr;  ///< round-scoped, set by begin_round
  const vgpu::graph::GraphExec* exec_ = nullptr;
  std::vector<std::vector<Entry>> lanes_;  ///< capacity kept across rounds
  std::vector<int> lane_streams_;
  int current_ = -1;
  PackRoundStats round_;
  // Scratch reused across barriers/dispatches (hot path: no allocations
  // once warm).
  std::vector<std::size_t> merge_pos_;
  std::vector<const Entry*> merge_members_;
  std::vector<int> commit_streams_;
  std::vector<int> block_job_;
};

}  // namespace fastpso::serve
