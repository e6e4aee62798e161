// PSO-as-a-service across a device group (DESIGN.md §12).
//
// GroupScheduler fronts one serve::Scheduler per device of a
// comm::DeviceGroup and places each submitted job on the device where it
// adds the least estimated load — a deterministic function of the
// submission sequence alone (estimated work = particles * dim * max_iter;
// ties go to the lowest device index), never of modeled clocks or pointer
// order, so a submission sequence always produces the same placement, the
// same schedules and the same bitwise results. When executed packing is on
// (options.pack, serve/packed.h), the marginal cost of a job is discounted
// by the same-shape cohort it would join (~1/k of solo load, capped at the
// default cohort width): packed cohorts genuinely cost less device time,
// and the discount steers same-shape jobs together so cohorts grow.
//
// Jobs never span devices (a job is one swarm on one device; the
// multi-device decomposition of a single swarm is core::MultiDeviceOptimizer),
// so the per-device schedulers stay fully independent: every job inherits
// the single-device serve contract — Result bitwise-identical to the same
// spec run solo on a fresh device — unchanged, whatever the group size.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "common/trace_export.h"
#include "serve/packed.h"
#include "serve/scheduler.h"
#include "vgpu/comm/comm.h"

namespace fastpso::serve {

/// Deterministic least-loaded placement of serve jobs over a DeviceGroup.
class GroupScheduler {
 public:
  /// The group must outlive the scheduler. Options apply to every
  /// per-device scheduler identically.
  explicit GroupScheduler(vgpu::comm::DeviceGroup& group,
                          SchedulerOptions options = {});

  GroupScheduler(const GroupScheduler&) = delete;
  GroupScheduler& operator=(const GroupScheduler&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(parts_.size()); }
  [[nodiscard]] Scheduler& scheduler(int device) {
    return *parts_[checked(device)].scheduler;
  }
  [[nodiscard]] const Scheduler& scheduler(int device) const {
    return *parts_[checked(device)].scheduler;
  }

  /// Places the job and enqueues it; returns a group-wide id (dense, in
  /// submission order).
  int submit(JobSpec spec);

  /// Drains every per-device scheduler.
  void run();

  /// The device a submitted job was placed on.
  [[nodiscard]] int device_of(int job_id) const;
  /// The completion record of a submitted job (run() must have drained it).
  [[nodiscard]] const JobOutcome& outcome_of(int job_id) const;

  /// Group totals: sums of the per-device raw counters (derived ratios are
  /// recomputed by the ServeStats helpers; makespan is the max).
  [[nodiscard]] ServeStats stats() const;

  /// Merged Chrome-trace view: each device's schedule on its own process
  /// row (pid = device index, tid = stream), deterministic.
  [[nodiscard]] std::vector<TraceEvent> trace() const;

 private:
  struct Part {
    std::unique_ptr<Scheduler> scheduler;
    double estimated_load = 0;  ///< sum of placed jobs' marginal work
    /// Jobs placed here per shape — sizes the packed-cohort discount.
    std::map<JobShape, int> shape_counts;
  };
  struct Placement {
    int device = 0;
    int local_id = 0;
  };

  [[nodiscard]] std::size_t checked(int device) const;

  std::vector<Part> parts_;
  std::vector<Placement> placements_;  ///< indexed by group-wide job id
  bool pack_ = false;  ///< effective pack gate (pack && batching && graphs)
};

}  // namespace fastpso::serve
