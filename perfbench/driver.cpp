// Repository benchmark driver: runs one workload against the FastPSO
// libraries for a wall-clock budget and prints one JSON object with the
// run's verdict and metrics. run.py builds this binary and forwards it.
//
//   perfbench_driver --workload solo|serve|tiny --seed N --seconds S
//                    --trace 0|1 [--trace-out spans.json]
//
// Workloads, each derived from --seed alone:
//   solo   the Table 1 fastpso cell: one griewank swarm of 4900-5100
//          particles in 200 dims on one virtual V100, run as back-to-back
//          jobs through core::Optimizer (eager engine, no serve layers).
//   serve  the serve_load mixed workload: batches of jobs over eight shapes
//          through serve::Scheduler (shape-keyed graph replay, priced
//          batching, no packing).
//   tiny   tiny jobs (8-16 particles, 2-8 dims) through serve::Scheduler
//          with executed cross-job packing.
//
// A run fixes its inputs (jobs or batches) from the seed, then cycles
// through them until --seconds have passed, at least once. Modeled numbers
// (the virtual V100 clock) come from the first pass, so they depend on the
// seed alone; every later pass must reproduce them bit for bit. Host wall
// numbers come from every pass. Before each job or batch the driver times
// one cold start (setup_s), so set-up samples spread over the whole run.
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics and writes the driver's spans (one per call into a layer) as a
// Chrome trace to --trace-out.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.h"
#include "common/trace_export.h"
#include "core/objective.h"
#include "core/optimizer.h"
#include "problems/problem.h"
#include "serve/scheduler.h"
#include "vgpu/device.h"

using namespace fastpso;

namespace {

constexpr int kSoloIters = 20;     ///< iterations per solo job
constexpr int kPaperIters = 2000;  ///< Table 1 run length (job latency)
constexpr int kSoloJobs = 3;       ///< distinct solo inputs per run
constexpr int kServeBatches = 16;  ///< distinct serve batches per run
constexpr int kServeJobs = 200;    ///< jobs per mixed batch
constexpr int kTinyJobs = 800;     ///< jobs per tiny batch
constexpr int kSoloChecks = 2;     ///< served jobs per batch rerun solo

constexpr const char* kPhases[] = {"init", "eval", "pbest", "gbest",
                                   "swarm"};

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D49B129649CA1Dull;
  return z ^ (z >> 31);
}

// ---- inputs ---------------------------------------------------------------

struct ShapeRow {
  const char* problem;
  int particles;
  int dim;
  core::UpdateTechnique technique;
  core::Topology topology;
};

// The two job tables of bench/serve_load.cpp: the mixed serving load and
// the tiny-job load that cross-job packing targets.
constexpr ShapeRow kMixedShapes[] = {
    {"sphere", 64, 16, core::UpdateTechnique::kGlobalMemory,
     core::Topology::kGlobal},
    {"rastrigin", 32, 8, core::UpdateTechnique::kGlobalMemory,
     core::Topology::kGlobal},
    {"rosenbrock", 64, 8, core::UpdateTechnique::kGlobalMemory,
     core::Topology::kGlobal},
    {"ackley", 32, 8, core::UpdateTechnique::kGlobalMemory,
     core::Topology::kRing},
    {"griewank", 64, 16, core::UpdateTechnique::kSharedMemory,
     core::Topology::kGlobal},
    {"zakharov", 16, 4, core::UpdateTechnique::kGlobalMemory,
     core::Topology::kGlobal},
    {"levy", 32, 4, core::UpdateTechnique::kGlobalMemory,
     core::Topology::kGlobal},
    {"schwefel", 16, 8, core::UpdateTechnique::kGlobalMemory,
     core::Topology::kGlobal},
};
constexpr ShapeRow kTinyShapes[] = {
    {"sphere", 8, 2, core::UpdateTechnique::kGlobalMemory,
     core::Topology::kGlobal},
    {"rastrigin", 8, 4, core::UpdateTechnique::kGlobalMemory,
     core::Topology::kGlobal},
    {"rosenbrock", 16, 2, core::UpdateTechnique::kGlobalMemory,
     core::Topology::kGlobal},
    {"zakharov", 16, 4, core::UpdateTechnique::kGlobalMemory,
     core::Topology::kGlobal},
    {"ackley", 16, 2, core::UpdateTechnique::kGlobalMemory,
     core::Topology::kRing},
    {"schwefel", 8, 8, core::UpdateTechnique::kGlobalMemory,
     core::Topology::kGlobal},
};

/// Solo job `job` of a run: the swarm size is drawn once per run, within
/// 0.5% of the paper's 5000, and the PSO seed once per job.
core::PsoParams solo_params(std::uint64_t seed, int job) {
  std::uint64_t state = seed;
  core::PsoParams params;
  params.particles = 4976 + static_cast<int>(splitmix64(state) % 49);
  params.dim = 200;
  params.max_iter = kSoloIters;
  for (int j = 0; j <= job; ++j) {
    params.seed = splitmix64(state);
  }
  return params;
}

/// One serve batch: budgets, seeds, priorities and tenants drawn from the
/// seed, arriving open-loop every 2 modeled microseconds. Shapes come in
/// blocks holding each shape of the table once, in an order drawn from the
/// seed, so every batch (and every first scheduling round) has the same
/// shape mix.
std::vector<serve::JobSpec> make_batch(bool tiny, std::uint64_t seed) {
  const int count = tiny ? kTinyJobs : kServeJobs;
  const ShapeRow* shapes = tiny ? kTinyShapes : kMixedShapes;
  const std::size_t shape_count =
      tiny ? std::size(kTinyShapes) : std::size(kMixedShapes);
  std::vector<std::size_t> order(shape_count);
  std::vector<serve::JobSpec> specs;
  specs.reserve(static_cast<std::size_t>(count));
  std::uint64_t state = seed;
  for (int i = 0; i < count; ++i) {
    const std::size_t slot = static_cast<std::size_t>(i) % shape_count;
    if (slot == 0) {
      for (std::size_t k = 0; k < shape_count; ++k) {
        order[k] = k;
      }
      for (std::size_t k = shape_count - 1; k > 0; --k) {
        std::swap(order[k], order[splitmix64(state) % (k + 1)]);
      }
    }
    const ShapeRow& row = shapes[order[slot]];
    serve::JobSpec spec;
    spec.problem = row.problem;
    spec.params.particles = row.particles;
    spec.params.dim = row.dim;
    spec.params.technique = row.technique;
    spec.params.topology = row.topology;
    spec.params.max_iter = 5 + static_cast<int>(splitmix64(state) % 20);
    spec.params.seed = splitmix64(state);
    spec.priority = static_cast<int>(splitmix64(state) % 3);
    spec.tenant = static_cast<int>(splitmix64(state) % 4);
    spec.arrival_seconds = static_cast<double>(i) * 2e-6;
    specs.push_back(spec);
  }
  return specs;
}

serve::SchedulerOptions serve_options(bool tiny) {
  serve::SchedulerOptions options;
  options.policy = serve::Policy::kFifo;
  options.streams = 4;
  options.max_active = tiny ? 128 : 32;
  options.use_graphs = true;
  options.fuse = false;
  options.batching = true;
  options.pack = tiny;
  return options;
}

// ---- statistics and spans -------------------------------------------------

/// Linear-interpolated quantile (0 for an empty sample).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Seconds on the steady clock since the first call.
double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The driver's spans: one per call into a layer (cat = the layer), each
/// naming its parent span. Kept in memory and written as one Chrome trace
/// at the end of a traced run; a no-op when tracing is off.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Starts a span at `begin`; returns its id (0 when tracing is off).
  int open(const std::string& name, const char* layer, int parent,
           double begin = now_s()) {
    if (!enabled_) {
      return 0;
    }
    TraceEvent event;
    event.name = name;
    event.cat = layer;
    event.ts_us = begin * 1e6;
    event.pid = 1;
    const int id = static_cast<int>(spans_.size()) + 1;
    event.args = {{"id", std::to_string(id)},
                  {"parent", std::to_string(parent)}};
    spans_.push_back(std::move(event));
    return id;
  }

  void close(int id, double end = now_s()) {
    if (id > 0) {
      TraceEvent& event = spans_[static_cast<std::size_t>(id - 1)];
      event.dur_us = end * 1e6 - event.ts_us;
    }
  }

  /// Durations in seconds of every span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const TraceEvent& event : spans_) {
      if (event.name == name) {
        out.push_back(event.dur_us * 1e-6);
      }
    }
    return out;
  }

  [[nodiscard]] bool write(const std::string& path) const {
    return write_chrome_trace(path, spans_);
  }

 private:
  bool enabled_;
  std::vector<TraceEvent> spans_;
};

class Span {
 public:
  Span(Tracer& tracer, const std::string& name, const char* layer,
       int parent = 0)
      : tracer_(tracer), id_(tracer.open(name, layer, parent)) {}
  ~Span() { tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// ---- measurement ----------------------------------------------------------

/// Sums over the first pass's jobs: the seed-determined numbers.
struct Totals {
  double iterations = 0;
  /// Device time: each job's clock (solo) or each batch's makespan (serve).
  double modeled_seconds = 0;
  TimeBreakdown wall_phases;
  TimeBreakdown modeled_phases;
  double launches = 0;
  double launches_real = 0;
  double dram_bytes = 0;
  double kernel_seconds = 0;
  double cache_lookups = 0;
  double cache_hits = 0;
  double replayed = 0;
  double packed_dispatches = 0;
  double queue_seconds = 0;
  double latency_seconds = 0;
  std::vector<double> job_latency_s;  ///< modeled, one per job

  void add_job(const core::Result& result) {
    iterations += result.iterations;
    wall_phases.merge(result.wall_breakdown);
    modeled_phases.merge(result.modeled_breakdown);
    dram_bytes +=
        result.counters.dram_read_fetched + result.counters.dram_write_fetched;
    kernel_seconds += result.counters.kernel_seconds;
  }
};

struct Measured {
  Totals first;
  /// Host wall per iteration of each job (solo) or batch (serve).
  std::vector<double> unit_wall_per_iter;
  /// Host wall per iteration of each step: one iteration (solo) or one
  /// scheduler round divided by the iterations it ran (serve).
  std::vector<double> step_wall_per_iter;
  std::vector<double> setup_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
};

/// What every finished job must satisfy: the run length it asked for, a
/// finite answer, a non-increasing gbest trajectory ending at the reported
/// value, and a reported value the problem reproduces at the reported
/// position.
bool result_ok(const core::Result& result, const core::PsoParams& params,
               const problems::Problem& problem) {
  const auto iters = static_cast<std::size_t>(params.max_iter);
  if (result.iterations != params.max_iter ||
      result.gbest_history.size() != iters ||
      result.gbest_position.size() != static_cast<std::size_t>(params.dim) ||
      !std::isfinite(result.gbest_value) || !(result.modeled_seconds > 0.0)) {
    return false;
  }
  for (std::size_t i = 1; i < iters; ++i) {
    if (result.gbest_history[i] > result.gbest_history[i - 1]) {
      return false;
    }
  }
  if (static_cast<float>(result.gbest_value) != result.gbest_history.back()) {
    return false;
  }
  const double host =
      problem.eval_f32(result.gbest_position.data(), params.dim);
  return std::abs(host - result.gbest_value) <=
         1e-4 * std::max(1.0, std::abs(host));
}

bool same_answer(const core::Result& a, const core::Result& b) {
  return a.gbest_value == b.gbest_value &&
         a.gbest_position == b.gbest_position &&
         a.gbest_history == b.gbest_history;
}

core::Result solo_run(const core::PsoParams& params,
                      const core::Objective& objective) {
  vgpu::Device device;
  core::Optimizer optimizer(device, params);
  return optimizer.optimize(objective);
}

/// Cold start of a solo job: a fresh device and a one-iteration job.
double solo_cold_start(std::uint64_t seed, const core::Objective& objective,
                       Tracer& tracer) {
  core::PsoParams params = solo_params(seed, 0);
  params.max_iter = 1;
  const double begin = now_s();
  const Span setup(tracer, "setup", "bench");
  std::unique_ptr<vgpu::Device> device;
  {
    const Span span(tracer, "setup.device", "vgpu", setup.id());
    device = std::make_unique<vgpu::Device>();
  }
  std::unique_ptr<core::Optimizer> optimizer;
  {
    const Span span(tracer, "setup.submit", "core", setup.id());
    optimizer = std::make_unique<core::Optimizer>(*device, params);
  }
  {
    const Span span(tracer, "setup.first_round", "core", setup.id());
    (void)optimizer->optimize(objective);
  }
  return now_s() - begin;
}

/// Cold start of a serve batch: a fresh device and scheduler, the batch
/// submitted, and the first scheduling round (admission and graph capture).
double serve_cold_start(const std::vector<serve::JobSpec>& batch,
                        const serve::SchedulerOptions& options,
                        Tracer& tracer) {
  const double begin = now_s();
  const Span setup(tracer, "setup", "bench");
  std::unique_ptr<vgpu::Device> device;
  std::unique_ptr<serve::Scheduler> scheduler;
  {
    const Span span(tracer, "setup.device", "vgpu", setup.id());
    device = std::make_unique<vgpu::Device>();
    scheduler = std::make_unique<serve::Scheduler>(*device, options);
  }
  {
    const Span span(tracer, "setup.submit", "serve", setup.id());
    for (const serve::JobSpec& spec : batch) {
      scheduler->submit(spec);
    }
  }
  {
    const Span span(tracer, "setup.first_round", "serve", setup.id());
    scheduler->pump();
  }
  return now_s() - begin;
}

void run_solo(std::uint64_t seed, double seconds, Tracer& tracer,
              Measured& m) {
  const auto problem = problems::make_problem("griewank");
  const core::Objective objective =
      core::objective_from_problem(*problem, solo_params(seed, 0).dim);

  // One warm device for every measured job: a first job fills its memory
  // pool, so each measured job starts from the same pool state.
  vgpu::Device device;
  (void)core::Optimizer(device, solo_params(seed, 0)).optimize(objective);

  std::vector<core::Result> first(kSoloJobs);
  const double start = now_s();
  for (int i = 0; i < kSoloJobs || now_s() - start < seconds; ++i) {
    const int job = i % kSoloJobs;
    const core::PsoParams params = solo_params(seed, job);
    m.setup_s.push_back(solo_cold_start(seed, objective, tracer));
    const Span span(tracer, "job", "bench");
    std::vector<double> stamps;
    stamps.reserve(kSoloIters);
    const double begin = now_s();
    core::Optimizer optimizer(device, params);
    const core::Result result = optimizer.optimize(
        objective, [&](int /*iter*/, double /*gbest*/) {
          const double t = now_s();
          tracer.close(tracer.open("step", "core", span.id(),
                                   stamps.empty() ? begin : stamps.back()),
                       t);
          stamps.push_back(t);
          return true;
        });
    const double wall = now_s() - begin;

    m.unit_wall_per_iter.push_back(wall / result.iterations);
    for (std::size_t k = 1; k < stamps.size(); ++k) {
      m.step_wall_per_iter.push_back(stamps[k] - stamps[k - 1]);
    }
    ++m.attempted;
    bool ok = result_ok(result, params, *problem);
    if (i < kSoloJobs) {
      Totals& t = m.first;
      t.add_job(result);
      t.modeled_seconds += result.modeled_seconds;
      t.launches += static_cast<double>(result.counters.launches);
      t.launches_real += static_cast<double>(result.counters.launches);
      const double paper_job_s =
          result.modeled_seconds * kPaperIters / result.iterations;
      t.job_latency_s.push_back(paper_job_s);
      t.latency_seconds += paper_job_s;
      first[static_cast<std::size_t>(job)] = result;
    } else {
      const core::Result& ref = first[static_cast<std::size_t>(job)];
      ok = ok && same_answer(result, ref) &&
           result.modeled_seconds == ref.modeled_seconds;
    }
    if (!ok) {
      ++m.failed;
    }
  }

  // The answer must not depend on the device's history.
  if (!same_answer(solo_run(solo_params(seed, 0), objective), first[0])) {
    m.correct = false;
  }
}

void run_serve(bool tiny, std::uint64_t seed, double seconds, Tracer& tracer,
               Measured& m) {
  const serve::SchedulerOptions options = serve_options(tiny);
  std::vector<std::vector<serve::JobSpec>> batches;
  std::uint64_t state = seed;
  for (int b = 0; b < kServeBatches; ++b) {
    batches.push_back(make_batch(tiny, splitmix64(state)));
  }
  std::map<std::string, std::unique_ptr<problems::Problem>> problems;
  for (const ShapeRow& row : kMixedShapes) {
    problems[row.problem] = problems::make_problem(row.problem);
  }

  std::vector<serve::ServeStats> first(kServeBatches);
  const double start = now_s();
  for (int i = 0; i < kServeBatches || now_s() - start < seconds; ++i) {
    const int b = i % kServeBatches;
    const std::vector<serve::JobSpec>& batch =
        batches[static_cast<std::size_t>(b)];
    m.setup_s.push_back(serve_cold_start(batches[0], options, tracer));
    const Span span(tracer, "batch", "bench");
    const double begin = now_s();
    vgpu::Device device;
    serve::Scheduler scheduler(device, options);
    {
      const Span submit(tracer, "submit", "serve", span.id());
      for (const serve::JobSpec& spec : batch) {
        scheduler.submit(spec);
      }
    }
    std::uint64_t iterations = 0;
    for (bool more = true; more;) {
      const double round_begin = now_s();
      {
        const Span round(tracer, "step", "serve", span.id());
        more = scheduler.pump();
      }
      const double round_s = now_s() - round_begin;
      const std::uint64_t total = scheduler.stats().iterations;
      if (total > iterations) {
        m.step_wall_per_iter.push_back(round_s /
                                       static_cast<double>(total - iterations));
      }
      iterations = total;
    }
    const double wall = now_s() - begin;
    const serve::ServeStats stats = scheduler.stats();
    m.unit_wall_per_iter.push_back(wall /
                                   static_cast<double>(stats.iterations));

    // Checks: every job finished with a sound answer, no graph fell back to
    // eager, packing ran when asked, and the schedule is reproducible.
    const auto& outcomes = scheduler.outcomes();
    m.attempted += batch.size();
    m.failed += batch.size() - std::min(batch.size(), outcomes.size());
    for (const serve::JobOutcome& out : outcomes) {
      const serve::JobSpec& spec = batch[static_cast<std::size_t>(out.id)];
      if (!result_ok(out.result, spec.params, *problems.at(spec.problem))) {
        ++m.failed;
      }
    }
    if (stats.graphs_poisoned != 0 || (tiny && stats.packed_dispatches == 0)) {
      m.correct = false;
    }
    if (i >= kServeBatches) {
      const serve::ServeStats& ref = first[static_cast<std::size_t>(b)];
      if (stats.makespan_seconds != ref.makespan_seconds ||
          stats.launches_real != ref.launches_real ||
          stats.iterations != ref.iterations) {
        m.correct = false;
      }
      continue;
    }
    first[static_cast<std::size_t>(b)] = stats;

    // The serving contract: a served job is bitwise its solo run.
    for (int k = 0; k < kSoloChecks; ++k) {
      const serve::JobOutcome& out =
          outcomes[splitmix64(state) % outcomes.size()];
      const serve::JobSpec& spec = batch[static_cast<std::size_t>(out.id)];
      const core::Result solo = solo_run(
          spec.params,
          core::objective_from_problem(*problems.at(spec.problem),
                                       spec.params.dim));
      if (!same_answer(solo, out.result) ||
          solo.modeled_seconds != out.result.modeled_seconds ||
          solo.counters.launches != out.result.counters.launches) {
        m.correct = false;
      }
    }

    Totals& t = m.first;
    t.modeled_seconds += stats.makespan_seconds;
    t.launches += static_cast<double>(stats.launches_issued);
    t.launches_real += static_cast<double>(stats.launches_real);
    t.cache_lookups += static_cast<double>(stats.cache_lookups);
    t.cache_hits += static_cast<double>(stats.cache_hits);
    t.replayed += static_cast<double>(stats.replayed_iterations);
    t.packed_dispatches += static_cast<double>(stats.packed_dispatches);
    for (const serve::JobOutcome& out : outcomes) {
      t.add_job(out.result);
      t.job_latency_s.push_back(out.latency_seconds());
      t.queue_seconds += out.queue_seconds();
      t.latency_seconds += out.latency_seconds();
    }
  }
}

// ---- output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> end_to_end(const Measured& m) {
  const Totals& t = m.first;
  return {
      {"wall_us_per_iter", median(m.unit_wall_per_iter) * 1e6, "us"},
      {"modeled_us_per_iter", t.modeled_seconds / t.iterations * 1e6, "us"},
      {"modeled_job_p50_ms", quantile(t.job_latency_s, 0.5) * 1e3, "ms"},
      {"modeled_job_p99_ms", quantile(t.job_latency_s, 0.99) * 1e3, "ms"},
      {"setup_s", median(m.setup_s), "s"},
  };
}

std::vector<Metric> per_layer(const Measured& m, const Tracer& tracer) {
  const Totals& t = m.first;
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  std::vector<Metric> out;
  for (const char* phase : kPhases) {
    out.push_back({std::string("wall_") + phase + "_us_per_iter",
                   t.wall_phases.get(phase) / t.iterations * 1e6, "us"});
  }
  for (const char* phase : kPhases) {
    out.push_back({std::string("modeled_") + phase + "_us_per_iter",
                   t.modeled_phases.get(phase) / t.iterations * 1e6, "us"});
  }
  const std::vector<Metric> rest = {
      {"launches_per_iter", t.launches / t.iterations, "count"},
      {"real_launches_per_iter", t.launches_real / t.iterations, "count"},
      {"dram_mb_per_iter", t.dram_bytes / t.iterations * 1e-6, "MB"},
      {"kernel_us_per_iter", t.kernel_seconds / t.iterations * 1e6, "us"},
      {"cache_hit_rate", ratio(t.cache_hits, t.cache_lookups), "ratio"},
      {"replayed_iter_share", t.replayed / t.iterations, "ratio"},
      {"packed_dispatches_per_iter", t.packed_dispatches / t.iterations,
       "count"},
      {"queue_share", ratio(t.queue_seconds, t.latency_seconds), "ratio"},
      {"setup_device_ms", median(tracer.durations("setup.device")) * 1e3,
       "ms"},
      {"setup_submit_ms", median(tracer.durations("setup.submit")) * 1e3,
       "ms"},
      {"setup_first_round_ms",
       median(tracer.durations("setup.first_round")) * 1e3, "ms"},
      {"step_p50_us", median(tracer.durations("step")) * 1e6, "us"},
      {"wall_p90_us_per_iter", quantile(m.step_wall_per_iter, 0.9) * 1e6,
       "us"},
      {"traced_wall_us_per_iter", median(m.unit_wall_per_iter) * 1e6, "us"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

void print_result(const Measured& m, const std::vector<Metric>& metrics) {
  bool correct = m.correct && m.failed == 0 && m.first.iterations > 0;
  std::ostringstream body;
  body.precision(12);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    double value = metrics[i].value;
    if (!std::isfinite(value)) {
      value = 0.0;
      correct = false;
    }
    body << (i > 0 ? ", " : "") << '"' << metrics[i].name
         << "\": {\"value\": " << value << ", \"unit\": \"" << metrics[i].unit
         << "\"}";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << m.attempted
            << ", \"failed\": " << m.failed << ", \"metrics\": {"
            << body.str() << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string workload = args.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 10.0);
  const bool trace = args.get_int("trace", 0) != 0;
  const std::string trace_out = args.get_string("trace-out", "");
  if (workload != "solo" && workload != "serve" && workload != "tiny") {
    std::cerr << "usage: perfbench_driver --workload solo|serve|tiny "
                 "--seed N --seconds S --trace 0|1 [--trace-out path]\n";
    return 2;
  }

  Tracer tracer(trace);
  Measured m;
  try {
    if (workload == "solo") {
      run_solo(seed, seconds, tracer, m);
    } else {
      run_serve(workload == "tiny", seed, seconds, tracer, m);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
  if (trace && !trace_out.empty() && !tracer.write(trace_out)) {
    std::cerr << "perfbench_driver: cannot write " << trace_out << "\n";
    return 1;
  }
  print_result(m, trace ? per_layer(m, tracer) : end_to_end(m));
  return 0;
}
