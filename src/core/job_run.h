// The synchronous PSO run body in step-able form — the job-shaped entry
// point under Optimizer::optimize and the serve scheduler (src/serve/).
//
// Optimizer::optimize_sync used to own the whole loop; extracting it here
// lets a scheduler interleave iterations of many jobs on one shared device
// while every job still executes the *identical* sequence of device
// operations a solo run would. Solo-vs-scheduled bitwise equivalence is by
// construction: both paths drive this one loop body, and all randomness is
// counter-based (rng/philox), so results depend only on (seed, shape).
//
// The caller owns the iteration bracketing: Optimizer runs step() eagerly,
// the serve scheduler wraps it in its shape-keyed graph cache's
// capture/replay sessions (serve/graph_cache.h).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/launch_policy.h"
#include "core/objective.h"
#include "core/params.h"
#include "core/result.h"
#include "core/stop_tracker.h"
#include "core/swarm_state.h"
#include "core/swarm_update.h"
#include "vgpu/buffer.h"
#include "vgpu/device.h"

namespace fastpso::core {

class JobRun {
 public:
  /// How finish() sources the run's top-line timing.
  enum class Mode {
    /// Whole-device run (Optimizer): modeled_seconds is the device clock
    /// (overlap across streams deducted) and the profile is taken.
    kSolo,
    /// Scheduled run (serve): the device clock is the shared multiplexed
    /// timeline, so modeled_seconds comes from this job's own accounting
    /// (== the solo device clock bitwise: the sync single-stream run
    /// accumulates both by the same += sequence). The profiler timeline
    /// stays on the device — it interleaves all jobs.
    kServe,
  };

  /// Allocates and initializes the swarm (Step i). The device, params and
  /// objective must outlive the run. Performs no reset_counters — the
  /// caller decides whose accounting the run accumulates into.
  JobRun(vgpu::Device& device, const PsoParams& params,
         const Objective& objective, Mode mode = Mode::kSolo);

  JobRun(const JobRun&) = delete;
  JobRun& operator=(const JobRun&) = delete;

  /// Runs exactly one iteration (Steps i–iv). Must not be called once
  /// done() — the run stops at max_iter or the early-stop condition.
  void step();

  /// One iteration in three sub-steps; step() == front; middle; back. The
  /// cuts sit exactly at the iteration's two host read-backs (the pbest
  /// improved-count loop and the gbest argmin fold), so the serve layer's
  /// packed lockstep stepping can run every cohort job's front, flush the
  /// packed launches, then every middle, flush, then every back — each
  /// job still issues the identical device-op sequence a solo step()
  /// would, keeping results bitwise equal. Call strictly in order.
  void step_front();
  void step_middle();
  void step_back();

  [[nodiscard]] bool done() const { return done_; }
  /// Iterations completed so far.
  [[nodiscard]] int iterations() const { return completed_; }
  [[nodiscard]] double gbest() const { return state_.gbest_err; }

  /// Downloads the answer and assembles the Result. Call at most once,
  /// after the last step().
  Result finish();

  /// Spans of every device buffer this run owns (base, bytes). The serve
  /// suite asserts that concurrently active jobs' spans are pairwise
  /// disjoint (no cross-job buffer sharing).
  [[nodiscard]] std::vector<std::pair<const void*, std::size_t>>
  buffer_spans() const;

 private:
  /// Sets the device phase to "init" before the swarm allocations so their
  /// modeled alloc costs land in the right bucket, exactly as the inline
  /// loop did.
  static SwarmState make_state(vgpu::Device& device, int n, int d);

  vgpu::Device& device_;
  const PsoParams params_;
  const Objective& objective_;
  Mode mode_;
  LaunchPolicy policy_;
  UpdateCoefficients coeff_;
  SwarmState state_;
  vgpu::KernelCostSpec eval_cost_;
  const float* positions_ = nullptr;
  float* perror_ = nullptr;
  // Ring topology working set (allocated only when used).
  vgpu::DeviceArray<std::int32_t> nbest_idx_;
  // Overlapped pipeline (params.overlap_init): double-buffered weight
  // matrices + a second stream.
  vgpu::DeviceArray<float> l_buf_[2];
  vgpu::DeviceArray<float> g_buf_[2];
  // Non-overlapped per-iteration weight matrices. Members (not step()
  // locals) so they live across the front/middle/back sub-steps; freed at
  // the end of step_back in the g-then-l order the old locals' reverse
  // destruction gave, keeping the pool-cache sequence bitwise identical.
  vgpu::DeviceArray<float> iter_l_;
  vgpu::DeviceArray<float> iter_g_;
  vgpu::Device::StreamId gen_stream_ = 0;
  StopTracker stop_;
  TimeBreakdown wall_;
  Stopwatch total_watch_;
  std::vector<float> history_;
  int completed_ = 0;
  bool done_ = false;
  bool finished_ = false;
};

}  // namespace fastpso::core
