#include "serve/group.h"

#include <algorithm>

#include "common/check.h"

namespace fastpso::serve {

GroupScheduler::GroupScheduler(vgpu::comm::DeviceGroup& group,
                               SchedulerOptions options) {
  // Mirror the per-device scheduler's effective pack gate: placement only
  // discounts for cohorts the schedulers will actually execute packed.
  pack_ = options.pack && options.batching && options.use_graphs;
  parts_.reserve(static_cast<std::size_t>(group.size()));
  for (int i = 0; i < group.size(); ++i) {
    Part part;
    part.scheduler = std::make_unique<Scheduler>(group.device(i), options);
    parts_.push_back(std::move(part));
  }
}

std::size_t GroupScheduler::checked(int device) const {
  FASTPSO_CHECK_MSG(device >= 0 && device < size(),
                    "device index out of range");
  return static_cast<std::size_t>(device);
}

int GroupScheduler::submit(JobSpec spec) {
  // Estimated work of the job, from the spec alone: element updates per
  // iteration times the iteration budget. Deterministic placement needs a
  // submission-time estimate, not modeled clocks (which only advance once
  // run() drains the queues).
  const double estimate = static_cast<double>(spec.params.particles) *
                          spec.params.dim * spec.params.max_iter;
  // Packed-aware marginal cost: a job joining k same-shape jobs already on
  // a device rides their merged cohort dispatches, so it adds ~1/(k+1) of
  // its solo load (capped at the default cohort width). This both models
  // the cheaper load and steers same-shape jobs together — bigger cohorts
  // pack better. With packing off the marginal cost is the full estimate
  // on every device and the choice reduces to plain least-load.
  const JobShape shape = JobShape::of(spec);
  const auto marginal = [&](const Part& part) {
    if (!pack_) {
      return estimate;
    }
    const auto it = part.shape_counts.find(shape);
    const int cohort = 1 + (it != part.shape_counts.end() ? it->second : 0);
    return estimate / static_cast<double>(std::min(cohort, kMaxCohort));
  };
  int device = 0;
  for (int i = 1; i < size(); ++i) {
    const Part& candidate = parts_[static_cast<std::size_t>(i)];
    const Part& best = parts_[static_cast<std::size_t>(device)];
    if (candidate.estimated_load + marginal(candidate) <
        best.estimated_load + marginal(best)) {
      device = i;  // strict <: ties keep the lowest device index
    }
  }
  Part& part = parts_[static_cast<std::size_t>(device)];
  part.estimated_load += marginal(part);
  ++part.shape_counts[shape];
  Placement placement;
  placement.device = device;
  placement.local_id = part.scheduler->submit(std::move(spec));
  placements_.push_back(placement);
  return static_cast<int>(placements_.size()) - 1;
}

void GroupScheduler::run() {
  for (Part& part : parts_) {
    part.scheduler->run();
  }
}

int GroupScheduler::device_of(int job_id) const {
  FASTPSO_CHECK_MSG(
      job_id >= 0 && job_id < static_cast<int>(placements_.size()),
      "unknown job id");
  return placements_[static_cast<std::size_t>(job_id)].device;
}

const JobOutcome& GroupScheduler::outcome_of(int job_id) const {
  FASTPSO_CHECK_MSG(
      job_id >= 0 && job_id < static_cast<int>(placements_.size()),
      "unknown job id");
  const Placement& placement = placements_[static_cast<std::size_t>(job_id)];
  const auto& outcomes =
      parts_[static_cast<std::size_t>(placement.device)].scheduler->outcomes();
  for (const JobOutcome& outcome : outcomes) {
    if (outcome.id == placement.local_id) {
      return outcome;
    }
  }
  FASTPSO_CHECK_MSG(false, "job has not completed");
  FASTPSO_UNREACHABLE("job has not completed");
}

ServeStats GroupScheduler::stats() const {
  ServeStats total;
  for (const Part& part : parts_) {
    const ServeStats s = part.scheduler->stats();
    total.jobs_submitted += s.jobs_submitted;
    total.jobs_completed += s.jobs_completed;
    total.iterations += s.iterations;
    total.cache_lookups += s.cache_lookups;
    total.cache_hits += s.cache_hits;
    total.graphs_captured += s.graphs_captured;
    total.graphs_poisoned += s.graphs_poisoned;
    total.replayed_iterations += s.replayed_iterations;
    total.eager_iterations += s.eager_iterations;
    total.launches_issued += s.launches_issued;
    total.launches_batched += s.launches_batched;
    total.batch_rounds += s.batch_rounds;
    total.launches_real += s.launches_real;
    total.packed_cohort_rounds += s.packed_cohort_rounds;
    total.packed_iterations += s.packed_iterations;
    total.packed_deferred_launches += s.packed_deferred_launches;
    total.packed_dispatches += s.packed_dispatches;
    total.packed_warp_dispatches += s.packed_warp_dispatches;
    total.batch_modeled_seconds_saved += s.batch_modeled_seconds_saved;
    total.graph_modeled_seconds_saved += s.graph_modeled_seconds_saved;
    // Devices drain concurrently: the group makespan is the slowest
    // device's; serial work and idle gaps add.
    total.makespan_seconds = std::max(total.makespan_seconds,
                                      s.makespan_seconds);
    total.serial_seconds += s.serial_seconds;
    total.scheduler_seconds += s.scheduler_seconds;
  }
  return total;
}

std::vector<TraceEvent> GroupScheduler::trace() const {
  std::vector<TraceEvent> merged;
  for (int device = 0; device < size(); ++device) {
    for (TraceEvent event :
         parts_[static_cast<std::size_t>(device)].scheduler->trace()) {
      event.pid = device;
      merged.push_back(std::move(event));
    }
  }
  return merged;
}

}  // namespace fastpso::serve
