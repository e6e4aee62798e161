// PSO-as-a-service: a concurrent job scheduler over one vgpu::Device.
//
// The scheduler accepts heterogeneous optimization jobs (mixed problems,
// dims, swarm sizes, iteration budgets) and multiplexes them onto a single
// shared device at iteration granularity: each scheduling round steps every
// active job once (core::JobRun::step), jobs are spread round-robin over a
// bounded stream pool so their kernel time overlaps on the modeled
// timeline, and admission follows a FIFO / priority / fair policy over the
// open-loop arrival queue.
//
// The contract that makes this safe to serve from is BITWISE EQUIVALENCE:
// every job's Result is byte-identical to the same spec run solo on a
// fresh device. Three mechanisms carry it —
//
//   * bound accounting (Device::bind_accounting): every entry into a
//     job's device work points the device's counters and per-phase
//     breakdown at the job's own, so they evolve through exactly the solo
//     sequence of += operations from zero. A delta of doubles could not
//     guarantee that (FP addition is non-associative); a binding can.
//   * a private MemoryPool per job (Device::set_pool_override): pool cache
//     hits skip the device allocator, so a shared warm cache would make a
//     scheduled job's alloc accounting diverge from its solo run.
//   * per-job counter-based RNG (rng/philox): results depend only on
//     (seed, shape), never on what else the device ran.
//
// Scheduling therefore changes only *where on the shared timeline* a job's
// work lands (its stream clock), never what the work computes or accounts.
// On top of that, the scheduler reuses one instantiated graph per JobShape
// (serve::GraphCache) and packs same-shape cohorts' launches cross-job —
// either for real (options.pack / FASTPSO_SERVE_PACK=1: lockstep substep
// stepping with merged cohort dispatches, serve/packed.h) or as a priced
// counterfactual (serve::Batcher, the default). Both credits flow through
// ServeStats as reported side channels and are never folded into any
// job's numbers — packed execution preserves bitwise equivalence because
// deferral moves execution, not accounting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/trace_export.h"
#include "core/job_run.h"
#include "core/objective.h"
#include "problems/problem.h"
#include "serve/batcher.h"
#include "serve/graph_cache.h"
#include "serve/job.h"
#include "serve/packed.h"
#include "serve/stats.h"
#include "vgpu/device.h"
#include "vgpu/memory_pool.h"

namespace fastpso::serve {

/// Admission order over arrived jobs.
enum class Policy : std::uint8_t {
  kFifo,      ///< submission order
  kPriority,  ///< highest JobSpec::priority first; ties by submission
  kFair,      ///< least-served tenant first; ties by submission
};

[[nodiscard]] const char* to_string(Policy policy);
/// Parses "fifo" / "priority" / "fair"; throws CheckError otherwise.
[[nodiscard]] Policy policy_from_string(const std::string& name);

struct SchedulerOptions {
  Policy policy = Policy::kFifo;
  /// Streams jobs are spread over (round-robin; jobs may share a stream).
  int streams = 4;
  /// Concurrency cap: jobs admitted (holding device memory) at once.
  int max_active = 16;
  /// Shape-keyed graph capture/replay across jobs (serve::GraphCache).
  bool use_graphs = true;
  /// Inert: must stay false (the Scheduler constructor throws otherwise).
  /// Fusion pricing is gone; the field remains only because the benchmark
  /// driver (perfbench/driver.cpp) assigns it, and it goes together with
  /// that assignment (ROADMAP item 1).
  bool fuse = false;
  /// Price cross-job batch packing of same-shape cohorts (reported
  /// credit). With pack on, the priced model yields to the executed one.
  bool batching = true;
  /// EXECUTE cross-job packing (serve/packed.h): replaying same-shape
  /// cohorts step in lockstep and their element launches run as merged
  /// block/warp-per-job dispatches. Defaults to FASTPSO_SERVE_PACK=1.
  /// Requires use_graphs; disabled automatically under the sanitizer
  /// (san::active() runs need every launch inline and tracked).
  bool pack = pack_enabled_from_env();
};

class Scheduler {
 public:
  /// The device must outlive the scheduler and should be fresh (the
  /// scheduler does not reset it). Single-threaded, like the device.
  explicit Scheduler(vgpu::Device& device, SchedulerOptions options = {});
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Validates and enqueues a job; returns its id (dense, in submission
  /// order). Throws CheckError for specs the serve pipeline cannot run
  /// (asynchronous mode, overlap_init, invalid shapes, unknown problems).
  int submit(JobSpec spec);

  /// Runs one scheduling round: admits arrived jobs up to max_active
  /// (advancing the modeled clock to the next arrival when the device is
  /// idle), steps every active job once in shape-cohort order, and
  /// finalizes completed jobs. Returns true while work remains.
  bool pump();

  /// Drives pump() until every submitted job has completed.
  void run();

  /// Aggregate statistics; fully deterministic for a given submission
  /// sequence (no wall-clock or pointer-order dependence).
  [[nodiscard]] ServeStats stats() const;

  /// Completion records in finish order.
  [[nodiscard]] const std::vector<JobOutcome>& outcomes() const {
    return outcomes_;
  }

  /// Chrome-trace view of the schedule: one complete event per job on its
  /// stream's lane (tid = stream), timestamps in modeled microseconds.
  /// Deterministic — byte-compared as a golden by the serve tests.
  [[nodiscard]] std::vector<TraceEvent> trace() const;

  [[nodiscard]] const SchedulerOptions& options() const { return options_; }
  [[nodiscard]] int active_jobs() const {
    return static_cast<int>(active_.size());
  }
  [[nodiscard]] int pending_jobs() const {
    return static_cast<int>(pending_.size());
  }

  /// Device-buffer spans of every active job, one vector per job. The serve
  /// suite asserts pairwise disjointness across jobs (no cross-job buffer
  /// sharing — the isolation the per-job pools and bound accounting
  /// assume).
  [[nodiscard]] std::vector<
      std::vector<std::pair<const void*, std::size_t>>>
  active_buffer_spans() const;

 private:
  struct Job {
    int id = -1;
    JobSpec spec;
    JobShape shape;
    std::unique_ptr<problems::Problem> problem;
    core::Objective objective;
    std::unique_ptr<vgpu::MemoryPool> pool;
    std::unique_ptr<core::JobRun> run;
    /// This job's accounting. The device accounts into them directly
    /// while the job is installed (their addresses are stable: a Job lives
    /// behind a unique_ptr).
    vgpu::DeviceCounters counters;
    TimeBreakdown breakdown;
    vgpu::Device::StreamId stream = 0;
    double admit_seconds = 0;
    std::uint64_t replayed = 0;
    std::uint64_t eager = 0;
    bool captured = false;
    bool first_iteration = true;
    /// Per-job replay cursor over the shape's shared exec, for the packed
    /// path's interleaved substep replays. Its breakdown slots resolve once
    /// per exec, against `breakdown`.
    vgpu::graph::GraphExec::ReplaySession session;
  };

  /// One packed cohort round, for the trace view (one event spanning the
  /// member jobs' lanes).
  struct CohortRecord {
    JobShape shape;
    double begin_seconds = 0;
    double end_seconds = 0;
    std::uint64_t dispatches = 0;
    std::vector<int> job_ids;
    std::vector<int> streams;  ///< parallel to job_ids
  };

  [[nodiscard]] double now() const { return device_.modeled_seconds(); }

  /// Binds the job's accounting on the device and routes allocations and
  /// launches to its pool and stream. Brackets MUST be paired and never
  /// nested; uninstall restores the scheduler's own accounting.
  void install(Job& job);
  void uninstall();

  void admit_arrived();
  /// Index into pending_ of the next job to admit under the policy, or -1.
  [[nodiscard]] int pick_pending() const;
  void admit(std::size_t pending_index);
  void round();
  /// Steps one replaying cohort in packed lockstep (front/middle/back with
  /// flush barriers); returns the launches its members accounted.
  std::uint64_t round_packed(const JobShape& shape,
                             const std::vector<Job*>& members,
                             vgpu::graph::GraphExec& exec);
  void finalize(std::unique_ptr<Job> job);
  void advance_to_next_arrival();

  vgpu::Device& device_;
  SchedulerOptions options_;
  GraphCache cache_;
  Batcher batcher_;
  CohortQueue queue_;
  std::vector<CohortRecord> cohorts_;  ///< packed rounds, for trace()
  std::vector<vgpu::Device::StreamId> streams_;
  std::size_t next_stream_ = 0;
  std::vector<std::unique_ptr<Job>> pending_;  ///< submission order
  std::vector<std::unique_ptr<Job>> active_;   ///< admission order
  std::vector<JobOutcome> outcomes_;
  std::map<int, std::uint64_t> tenant_served_;  ///< kFair bookkeeping
  ServeStats tally_;  ///< accumulators; stats() adds derived fields
  int next_id_ = 0;
  bool installed_ = false;
};

}  // namespace fastpso::serve
