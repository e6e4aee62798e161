#include "serve/scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace fastpso::serve {

const char* to_string(Policy policy) {
  switch (policy) {
    case Policy::kFifo:
      return "fifo";
    case Policy::kPriority:
      return "priority";
    case Policy::kFair:
      return "fair";
  }
  return "?";
}

Policy policy_from_string(const std::string& name) {
  if (name == "fifo") {
    return Policy::kFifo;
  }
  if (name == "priority") {
    return Policy::kPriority;
  }
  if (name == "fair") {
    return Policy::kFair;
  }
  FASTPSO_CHECK_MSG(false, "unknown admission policy: " + name);
}

Scheduler::Scheduler(vgpu::Device& device, SchedulerOptions options)
    : device_(device),
      options_(options),
      cache_(device),
      batcher_(device.perf()),
      queue_(device.perf()) {
  FASTPSO_CHECK_MSG(!options_.fuse,
                    "SchedulerOptions::fuse must be false: fusion pricing "
                    "was removed");
  FASTPSO_CHECK_MSG(options_.streams >= 1, "need at least one stream");
  FASTPSO_CHECK_MSG(options_.max_active >= 1, "need max_active >= 1");
  while (device_.stream_count() < options_.streams) {
    device_.create_stream();
  }
  streams_.reserve(static_cast<std::size_t>(options_.streams));
  for (int s = 0; s < options_.streams; ++s) {
    streams_.push_back(s);
  }
}

Scheduler::~Scheduler() {
  // Abandoned active jobs still hold device buffers that were allocated
  // through their private pools; destroy them with the matching pool
  // installed so every free finds its allocator.
  for (auto& job : active_) {
    if (job->run != nullptr) {
      device_.set_pool_override(job->pool.get());
      job->run.reset();
      device_.set_pool_override(nullptr);
    }
    job->pool.reset();
  }
}

int Scheduler::submit(JobSpec spec) {
  const core::PsoParams& p = spec.params;
  p.validate();
  FASTPSO_CHECK_MSG(
      p.synchronization == core::Synchronization::kSynchronous,
      "serve schedules the synchronous pipeline only");
  FASTPSO_CHECK_MSG(!p.overlap_init,
                    "overlap_init is not schedulable: a served job owns "
                    "exactly one stream (the scheduler provides the "
                    "cross-job overlap instead)");
  FASTPSO_CHECK_MSG(
      std::isfinite(spec.arrival_seconds) && spec.arrival_seconds >= 0.0,
      "job arrival time must be finite and non-negative");

  auto job = std::make_unique<Job>();
  job->id = next_id_++;
  job->shape = JobShape::of(spec);
  job->problem = problems::make_problem(spec.problem);  // throws on unknown
  job->objective = core::objective_from_problem(*job->problem, p.dim);
  job->spec = std::move(spec);
  const int id = job->id;
  pending_.push_back(std::move(job));
  ++tally_.jobs_submitted;
  return id;
}

void Scheduler::install(Job& job) {
  FASTPSO_CHECK_MSG(!installed_, "nested job install");
  installed_ = true;
  device_.bind_accounting(job.counters, job.breakdown);
  device_.set_pool_override(job.pool.get());
  device_.set_stream(job.stream);
}

void Scheduler::uninstall() {
  FASTPSO_CHECK_MSG(installed_, "uninstall without install");
  installed_ = false;
  device_.set_stream(0);
  device_.set_pool_override(nullptr);
  device_.unbind_accounting();
}

int Scheduler::pick_pending() const {
  const double clock = now();
  int best = -1;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const Job& job = *pending_[i];
    if (job.spec.arrival_seconds > clock) {
      continue;  // not yet arrived on the modeled timeline
    }
    if (best < 0) {
      best = static_cast<int>(i);
      continue;
    }
    const Job& cur = *pending_[static_cast<std::size_t>(best)];
    switch (options_.policy) {
      case Policy::kFifo:
        break;  // earliest submission (lowest index) wins
      case Policy::kPriority:
        if (job.spec.priority > cur.spec.priority) {
          best = static_cast<int>(i);
        }
        break;
      case Policy::kFair: {
        const auto served = [this](const Job& j) -> std::uint64_t {
          const auto it = tenant_served_.find(j.spec.tenant);
          return it == tenant_served_.end() ? 0 : it->second;
        };
        if (served(job) < served(cur)) {
          best = static_cast<int>(i);
        }
        break;
      }
    }
  }
  return best;
}

void Scheduler::admit(std::size_t pending_index) {
  std::unique_ptr<Job> job = std::move(pending_[pending_index]);
  pending_.erase(pending_.begin() +
                 static_cast<std::ptrdiff_t>(pending_index));

  job->stream = streams_[next_stream_++ % streams_.size()];
  job->admit_seconds = now();
  ++tenant_served_[job->spec.tenant];

  // Private allocator: matches a fresh solo device's empty pool, and keeps
  // this job's cache warm-up invisible to every other job's accounting.
  job->pool = std::make_unique<vgpu::MemoryPool>(
      device_, job->spec.params.memory_caching);

  install(*job);
  job->run = std::make_unique<core::JobRun>(
      device_, job->spec.params, job->objective, core::JobRun::Mode::kServe);
  uninstall();

  active_.push_back(std::move(job));
}

void Scheduler::admit_arrived() {
  while (static_cast<int>(active_.size()) < options_.max_active) {
    const int index = pick_pending();
    if (index < 0) {
      break;
    }
    admit(static_cast<std::size_t>(index));
  }
}

void Scheduler::advance_to_next_arrival() {
  double next = std::numeric_limits<double>::infinity();
  for (const auto& job : pending_) {
    next = std::min(next, job->spec.arrival_seconds);
  }
  const double gap = next - now();
  if (gap > 0 && std::isfinite(gap)) {
    // Open-loop idle: nothing to run until the next arrival. The gap is
    // modeled host time under the scheduler's own accounting — it advances
    // the shared clock but never touches any job's counters.
    device_.set_phase("serve");
    device_.add_modeled_host_seconds(gap);
    tally_.scheduler_seconds += gap;
  }
}

void Scheduler::round() {
  // Same-shape jobs step consecutively (shape-sorted cohorts, members in
  // admission order): this is the grouping the batch-packing model prices,
  // and it makes round order independent of pointer values or wall time.
  std::map<JobShape, std::vector<Job*>> cohorts;
  for (const auto& job : active_) {
    cohorts[job->shape].push_back(job.get());
  }

  for (auto& [shape, members] : cohorts) {
    // Executed packing path: a cohort of >= 2 replay-ready jobs steps in
    // lockstep and its element launches run as merged dispatches. The
    // sanitizer needs every launch inline and tracked, so it forces the
    // solo path (packing is an optimization, never a semantics change).
    if (options_.pack && options_.batching && options_.use_graphs &&
        members.size() >= 2 && !vgpu::san::active()) {
      if (vgpu::graph::GraphExec* exec = cache_.exec_mutable(shape)) {
        round_packed(shape, members, *exec);
        continue;
      }
    }

    std::uint64_t issued = 0;
    std::uint64_t packed = 0;
    std::uint64_t max_replay_launches = 0;
    int replayers = 0;

    for (Job* job : members) {
      if (job->first_iteration) {
        job->first_iteration = false;
        ++tally_.cache_lookups;
        if (options_.use_graphs && cache_.ready(shape)) {
          ++tally_.cache_hits;
        }
      }

      const std::uint64_t launches_before = job->counters.launches;
      install(*job);
      auto mode = GraphCache::IterationMode::kEager;
      if (options_.use_graphs) {
        mode = cache_.begin_iteration(shape, job->stream);
      }
      job->run->step();
      bool clean = true;
      if (options_.use_graphs) {
        clean = cache_.end_iteration(shape, mode);
      }
      uninstall();
      const std::uint64_t delta = job->counters.launches - launches_before;

      ++tally_.iterations;
      issued += delta;
      if (mode == GraphCache::IterationMode::kReplay) {
        ++job->replayed;
        ++tally_.replayed_iterations;
        ++replayers;
        max_replay_launches = std::max(max_replay_launches, delta);
      } else {
        ++job->eager;
        ++tally_.eager_iterations;
        packed += delta;
        if (mode == GraphCache::IterationMode::kCapture && clean) {
          job->captured = true;
        }
      }
    }

    // Packing model: the replaying members of a cohort issue one shared
    // launch sequence (their clean replays prove the sequences match node
    // for node), so the packed count takes the largest member's launches
    // once — the union rule; members differing only by the conditional
    // gbest copy are covered by the longest sequence. Non-replaying
    // members (capture / eager) are never packed.
    if (replayers > 0) {
      packed += max_replay_launches;
    }
    tally_.launches_issued += issued;
    tally_.launches_real += issued;  // every launch executed itself
    tally_.launches_batched += options_.batching ? packed : issued;
    if (options_.batching && replayers >= 2) {
      if (const auto* exec = cache_.exec(shape)) {
        ++tally_.batch_rounds;
        tally_.batch_modeled_seconds_saved +=
            batcher_.packed_saving(shape, *exec, replayers);
      }
    }
  }

  // Finalize completed jobs in admission order (deterministic teardown).
  for (auto it = active_.begin(); it != active_.end();) {
    if ((*it)->run->done()) {
      finalize(std::move(*it));
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
}

std::uint64_t Scheduler::round_packed(const JobShape& shape,
                                      const std::vector<Job*>& members,
                                      vgpu::graph::GraphExec& exec) {
  CohortRecord record;
  record.shape = shape;
  record.begin_seconds = now();

  queue_.begin_round(device_, exec, static_cast<int>(members.size()));
  vgpu::PackSink* const previous_sink = device_.set_pack_sink(&queue_);

  // Lockstep substep stepping: every member runs the same sub-step of its
  // iteration, launches matched by its own replay session defer onto its
  // lane, and the barrier between substeps executes them packed. The cuts
  // (JobRun::step_front/middle/back) sit exactly at the iteration's host
  // read-backs, so no member ever reads data a deferred span still owes.
  std::vector<std::uint64_t> launches_before(members.size());
  bool poisoned = false;
  for (int sub = 0; sub < 3; ++sub) {
    for (std::size_t m = 0; m < members.size(); ++m) {
      Job* job = members[m];
      if (sub == 0 && job->first_iteration) {
        // A packed cohort only forms once the shape's exec is cached, so a
        // member's first iteration is by definition a cache hit.
        job->first_iteration = false;
        ++tally_.cache_lookups;
        ++tally_.cache_hits;
      }
      if (sub == 0) {
        launches_before[m] = job->counters.launches;
      }
      install(*job);
      if (sub == 0) {
        exec.set_replay_stream(job->session, job->stream);
        device_.begin_replay(exec, job->session);
      } else {
        device_.attach_replay(exec, job->session);
      }
      queue_.set_lane(static_cast<int>(m), job->stream);
      switch (sub) {
        case 0:
          job->run->step_front();
          break;
        case 1:
          job->run->step_middle();
          break;
        default:
          job->run->step_back();
          break;
      }
      queue_.set_lane(-1);
      if (sub == 2) {
        if (!device_.end_replay()) {
          poisoned = true;
        }
      } else {
        device_.detach_replay();
      }
      uninstall();
    }
    queue_.flush_barrier(device_);
  }

  device_.set_pack_sink(previous_sink);
  const PackRoundStats packed = queue_.take_round();

  std::uint64_t issued = 0;
  for (std::size_t m = 0; m < members.size(); ++m) {
    Job* job = members[m];
    issued += job->counters.launches - launches_before[m];
    ++job->replayed;
    ++tally_.iterations;
    ++tally_.replayed_iterations;
    ++tally_.packed_iterations;
    record.job_ids.push_back(job->id);
    record.streams.push_back(job->stream);
  }
  if (poisoned) {
    // Same consequence as a diverged end_iteration: the shape runs eagerly
    // (and unpacked) from the next round on; this round's numbers are
    // unharmed — diverging launches fell through to eager accounting.
    cache_.poison(shape);
  }

  // Executed batch accounting: launches_batched/launches_real track the
  // dispatches that genuinely ran, and the credit is the executed saving
  // the merged dispatches realized (primary in pack mode — the priced
  // Batcher counterfactual never runs for packed cohorts).
  const std::uint64_t real =
      issued - packed.deferred + packed.dispatches + packed.inline_spans;
  tally_.launches_issued += issued;
  tally_.launches_batched += real;
  tally_.launches_real += real;
  ++tally_.batch_rounds;
  tally_.batch_modeled_seconds_saved += packed.executed_saved_seconds;
  ++tally_.packed_cohort_rounds;
  tally_.packed_deferred_launches += packed.deferred;
  tally_.packed_dispatches += packed.dispatches;
  tally_.packed_warp_dispatches += packed.warp_dispatches;

  record.end_seconds = now();
  record.dispatches = packed.dispatches;
  cohorts_.push_back(std::move(record));
  return issued;
}

void Scheduler::finalize(std::unique_ptr<Job> job) {
  JobOutcome out;
  out.id = job->id;
  out.shape = job->shape;
  out.stream = job->stream;
  out.priority = job->spec.priority;
  out.tenant = job->spec.tenant;
  out.submit_seconds = job->spec.arrival_seconds;
  out.admit_seconds = job->admit_seconds;
  out.replayed_iterations = job->replayed;
  out.eager_iterations = job->eager;
  out.captured = job->captured;

  install(*job);
  // finish() snapshots the job's counters at exactly the point a solo run
  // does (before the swarm buffers are destroyed)...
  out.result = job->run->finish();
  // ...then the run's buffers are freed with the job's pool still
  // installed, so every free finds the allocator that served it.
  job->run.reset();
  uninstall();
  out.finish_seconds = device_.stream_clock(job->stream);
  // Pool teardown (returning cached blocks to the device) is scheduler
  // work, after the job's accounting is sealed — a solo run's Result
  // excludes its teardown frees the same way.
  job->pool.reset();

  tally_.serial_seconds += out.result.modeled_seconds;
  ++tally_.jobs_completed;
  outcomes_.push_back(std::move(out));
}

bool Scheduler::pump() {
  if (pending_.empty() && active_.empty()) {
    return false;
  }
  admit_arrived();
  if (active_.empty()) {
    advance_to_next_arrival();
    admit_arrived();
  }
  FASTPSO_CHECK_MSG(!active_.empty(), "scheduler stalled with pending jobs");
  round();
  return !(pending_.empty() && active_.empty());
}

void Scheduler::run() {
  while (pump()) {
  }
}

ServeStats Scheduler::stats() const {
  ServeStats stats = tally_;
  stats.graphs_captured = cache_.graphs_captured();
  stats.graphs_poisoned = cache_.graphs_poisoned();
  stats.graph_modeled_seconds_saved = cache_.graph_seconds_saved();
  stats.makespan_seconds = device_.modeled_seconds();
  return stats;
}

std::vector<TraceEvent> Scheduler::trace() const {
  std::vector<TraceEvent> events;
  events.reserve(outcomes_.size());
  for (const JobOutcome& out : outcomes_) {
    TraceEvent ev;
    ev.name = "job" + std::to_string(out.id) + " " + out.shape.problem;
    ev.cat = "job";
    ev.ts_us = out.admit_seconds * 1e6;
    ev.dur_us = (out.finish_seconds - out.admit_seconds) * 1e6;
    ev.pid = 1;
    ev.tid = out.stream;  // one lane per stream
    ev.args = {
        {"shape", "\"" + json_escape(out.shape.to_string()) + "\""},
        {"iterations", std::to_string(out.result.iterations)},
        {"priority", std::to_string(out.priority)},
        {"tenant", std::to_string(out.tenant)},
        {"replayed", std::to_string(out.replayed_iterations)},
        {"eager", std::to_string(out.eager_iterations)},
    };
    events.push_back(std::move(ev));
  }
  // Packed cohort rounds: one event per member lane with a shared name and
  // identical timestamps, so the cohort reads as one bar spanning its k
  // job lanes in the viewer. Deterministic, golden-comparable.
  for (const CohortRecord& cohort : cohorts_) {
    std::string jobs = "[";
    for (std::size_t i = 0; i < cohort.job_ids.size(); ++i) {
      jobs += (i == 0 ? "" : ",") + std::to_string(cohort.job_ids[i]);
    }
    jobs += "]";
    for (std::size_t i = 0; i < cohort.job_ids.size(); ++i) {
      TraceEvent ev;
      ev.name = "cohort " + cohort.shape.problem + " k=" +
                std::to_string(cohort.job_ids.size());
      ev.cat = "pack";
      ev.ts_us = cohort.begin_seconds * 1e6;
      ev.dur_us = (cohort.end_seconds - cohort.begin_seconds) * 1e6;
      ev.pid = 1;
      ev.tid = cohort.streams[i];
      ev.args = {
          {"shape", "\"" + json_escape(cohort.shape.to_string()) + "\""},
          {"jobs", jobs},
          {"dispatches", std::to_string(cohort.dispatches)},
      };
      events.push_back(std::move(ev));
    }
  }
  return events;
}

std::vector<std::vector<std::pair<const void*, std::size_t>>>
Scheduler::active_buffer_spans() const {
  std::vector<std::vector<std::pair<const void*, std::size_t>>> spans;
  spans.reserve(active_.size());
  for (const auto& job : active_) {
    if (job->run != nullptr) {
      spans.push_back(job->run->buffer_spans());
    }
  }
  return spans;
}

}  // namespace fastpso::serve
