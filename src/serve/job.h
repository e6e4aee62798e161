// Job descriptions for the PSO serving layer (src/serve/, DESIGN.md §10).
//
// A JobSpec is one optimization request — a Table-1 problem plus the full
// PsoParams shape/budget/seed — submitted to the serve::Scheduler, which
// multiplexes thousands of such jobs onto one vgpu::Device. The JobShape is
// the structural subset of a spec that determines its per-iteration launch
// sequence; it keys the scheduler's graph cache and its cross-job batching
// cohorts. A JobOutcome is the completion record: the Result (bitwise
// identical to the same spec run solo on a fresh device) plus the job's
// modeled timeline on the shared device.
#pragma once

#include <cstdint>
#include <string>

#include "core/params.h"
#include "core/result.h"

namespace fastpso::serve {

/// One optimization request. `problem` names a built-in test function
/// (problems::make_problem); `params` carries shape, budget and seed.
/// Scheduling constraints: the synchronous pipeline only, and no
/// overlap_init (a scheduled job owns exactly one stream — the scheduler
/// provides the cross-job overlap that overlap_init provides within a job).
struct JobSpec {
  std::string problem = "sphere";
  core::PsoParams params;
  /// Admission rank under Policy::kPriority (higher admits first).
  int priority = 0;
  /// Fair-share key under Policy::kFair (e.g. a user id).
  int tenant = 0;
  /// Modeled arrival time (open-loop submission): the job becomes
  /// admissible once the device clock reaches this. 0 = available at start.
  double arrival_seconds = 0.0;
};

/// The graph-cache key: everything that determines a job's per-iteration
/// launch sequence (kernel shapes, order, phases). Seed and iteration
/// budget are deliberately excluded — they change values and trip counts,
/// not structure — so all same-shape jobs replay one instantiated graph.
struct JobShape {
  std::string problem;
  int particles = 0;
  int dim = 0;
  core::UpdateTechnique technique = core::UpdateTechnique::kGlobalMemory;
  core::Topology topology = core::Topology::kGlobal;
  int ring_neighbors = 0;  ///< 0 unless topology == kRing

  [[nodiscard]] static JobShape of(const JobSpec& spec);
  [[nodiscard]] std::string to_string() const;

  auto operator<=>(const JobShape&) const = default;
};

/// Completion record for one scheduled job.
struct JobOutcome {
  int id = -1;
  JobShape shape;
  int stream = 0;
  int priority = 0;
  int tenant = 0;

  /// Bitwise-identical to the same spec run solo on a fresh device
  /// (gbest value/position/history, iterations, counters, breakdown and
  /// modeled_seconds) — the serve differential suite's contract. The
  /// profiler timeline is not populated: it interleaves all jobs and stays
  /// on the device. Graph bookkeeping lives in the scheduler's shape cache.
  core::Result result;

  /// Modeled timeline points on the shared device clock.
  double submit_seconds = 0;  ///< the spec's arrival time
  double admit_seconds = 0;   ///< device clock when the job was admitted
  double finish_seconds = 0;  ///< device clock when the result was read back

  /// Capture/replay bookkeeping against the scheduler's shape cache.
  std::uint64_t replayed_iterations = 0;
  std::uint64_t eager_iterations = 0;
  bool captured = false;  ///< this job recorded its shape's graph

  [[nodiscard]] double latency_seconds() const {
    return finish_seconds - submit_seconds;
  }
  [[nodiscard]] double queue_seconds() const {
    return admit_seconds - submit_seconds;
  }
};

}  // namespace fastpso::serve
