// Differential and stress tests for the serving layer (src/serve/).
//
// The serve contract under test: a job scheduled among hundreds of others
// on one shared device produces a Result BITWISE IDENTICAL to the same
// spec run solo on a fresh device — same gbest value/position/history,
// same iteration count, same counters, same per-phase breakdown, same
// modeled seconds — across admission policies, submission orders, and the
// graph/batching switches. Scheduling may change only where on the shared
// timeline work lands, never what it computes or accounts.
//
// The suite runs unchanged under FASTPSO_SERVE_PACK=1 (CI reruns the whole
// ctest under it): the solo side never captures, and replay accounting is
// byte-identical to eager accounting, so the differential still closes.
// FASTPSO_SAN=1 changes nothing here; no test in this file reads it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/trace_export.h"
#include "core/objective.h"
#include "core/optimizer.h"
#include "problems/problem.h"
#include "serve/packed.h"
#include "serve/scheduler.h"
#include "switch_guards.h"
#include "vgpu/device.h"

namespace fastpso::serve {
namespace {

// ---- workload builders ---------------------------------------------------

JobSpec make_spec(const std::string& problem, int particles, int dim,
                  int iters, std::uint64_t seed) {
  JobSpec spec;
  spec.problem = problem;
  spec.params.particles = particles;
  spec.params.dim = dim;
  spec.params.max_iter = iters;
  spec.params.seed = seed;
  return spec;
}

/// A small heterogeneous workload: five distinct shapes (mixed problems,
/// dims, swarm sizes, update techniques and one ring topology), varied
/// budgets, seeds, priorities and tenants.
std::vector<JobSpec> mixed_specs() {
  std::vector<JobSpec> specs;
  for (int i = 0; i < 3; ++i) {
    specs.push_back(make_spec("sphere", 32, 8, 8, 100 + i));
  }
  for (int i = 0; i < 2; ++i) {
    specs.push_back(make_spec("rastrigin", 16, 4, 12, 200 + i));
  }
  for (int i = 0; i < 2; ++i) {
    specs.push_back(make_spec("rosenbrock", 64, 8, 6, 300 + i));
  }
  for (int i = 0; i < 2; ++i) {
    JobSpec spec = make_spec("ackley", 31, 8, 7, 400 + i);
    spec.params.topology = core::Topology::kRing;
    spec.params.ring_neighbors = 2;
    specs.push_back(spec);
  }
  for (int i = 0; i < 2; ++i) {
    JobSpec spec = make_spec("griewank", 32, 8, 9, 500 + i);
    spec.params.technique = core::UpdateTechnique::kSharedMemory;
    specs.push_back(spec);
  }
  specs.push_back(make_spec("levy", 8, 2, 20, 600));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].priority = static_cast<int>(i % 3);
    specs[i].tenant = static_cast<int>(i % 4);
  }
  return specs;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D49B129649CA1Dull;
  return z ^ (z >> 31);
}

/// `count` randomly shaped jobs from a fixed seed: shapes drawn from a
/// fixed 8-entry table (so the graph cache is exercised hard), budgets,
/// seeds, priorities, tenants and open-loop arrival times all derived from
/// the seed via splitmix64 — fully reproducible.
std::vector<JobSpec> stress_specs(int count, std::uint64_t seed) {
  struct ShapeRow {
    const char* problem;
    int particles;
    int dim;
  };
  static constexpr ShapeRow kShapes[] = {
      {"sphere", 32, 8},    {"rastrigin", 16, 4}, {"rosenbrock", 32, 8},
      {"ackley", 8, 4},     {"griewank", 16, 8},  {"zakharov", 32, 4},
      {"levy", 8, 2},       {"schwefel", 16, 2},
  };
  std::vector<JobSpec> specs;
  specs.reserve(static_cast<std::size_t>(count));
  std::uint64_t state = seed;
  for (int i = 0; i < count; ++i) {
    const ShapeRow& row = kShapes[splitmix64(state) % std::size(kShapes)];
    JobSpec spec = make_spec(row.problem, row.particles, row.dim,
                             3 + static_cast<int>(splitmix64(state) % 8),
                             splitmix64(state));
    spec.priority = static_cast<int>(splitmix64(state) % 3);
    spec.tenant = static_cast<int>(splitmix64(state) % 4);
    spec.arrival_seconds = static_cast<double>(i) * 2e-6;
    specs.push_back(spec);
  }
  return specs;
}

// ---- solo / serve drivers ------------------------------------------------

core::Result solo_run(const JobSpec& spec) {
  vgpu::Device device;
  const auto problem = problems::make_problem(spec.problem);
  const core::Objective objective =
      core::objective_from_problem(*problem, spec.params.dim);
  core::Optimizer optimizer(device, spec.params);
  return optimizer.optimize(objective);
}

/// Runs the workload through a scheduler on a fresh device; results are
/// returned indexed like `specs` (submission ids map back through the
/// order of submit calls).
std::vector<core::Result> serve_run(const std::vector<JobSpec>& specs,
                                    const SchedulerOptions& options,
                                    ServeStats* stats_out = nullptr) {
  vgpu::Device device;
  Scheduler scheduler(device, options);
  std::vector<int> ids;
  ids.reserve(specs.size());
  for (const JobSpec& spec : specs) {
    ids.push_back(scheduler.submit(spec));
  }
  scheduler.run();
  EXPECT_EQ(scheduler.outcomes().size(), specs.size());
  std::vector<core::Result> results(specs.size());
  for (const JobOutcome& out : scheduler.outcomes()) {
    const auto it = std::find(ids.begin(), ids.end(), out.id);
    EXPECT_NE(it, ids.end()) << "outcome for unknown id " << out.id;
    if (it != ids.end()) {
      results[static_cast<std::size_t>(it - ids.begin())] = out.result;
    }
  }
  if (stats_out != nullptr) {
    *stats_out = scheduler.stats();
  }
  return results;
}

// ---- bitwise comparison --------------------------------------------------

void expect_counters_equal(const vgpu::DeviceCounters& a,
                           const vgpu::DeviceCounters& b) {
  EXPECT_EQ(a.allocs, b.allocs);
  EXPECT_EQ(a.frees, b.frees);
  EXPECT_EQ(a.launches, b.launches);
  EXPECT_EQ(a.transfers, b.transfers);
  EXPECT_EQ(a.barriers, b.barriers);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.transcendentals, b.transcendentals);
  EXPECT_EQ(a.dram_read_useful, b.dram_read_useful);
  EXPECT_EQ(a.dram_write_useful, b.dram_write_useful);
  EXPECT_EQ(a.dram_read_fetched, b.dram_read_fetched);
  EXPECT_EQ(a.dram_write_fetched, b.dram_write_fetched);
  EXPECT_EQ(a.h2d_bytes, b.h2d_bytes);
  EXPECT_EQ(a.d2h_bytes, b.d2h_bytes);
  EXPECT_EQ(a.modeled_seconds, b.modeled_seconds);
  EXPECT_EQ(a.kernel_seconds, b.kernel_seconds);
}

/// Bitwise equality of everything a solo and a scheduled run must share.
/// Wall clocks and the profiler timeline are run-local and excluded by
/// design.
void expect_bitwise_equal(const core::Result& solo,
                          const core::Result& served) {
  EXPECT_EQ(solo.gbest_value, served.gbest_value);
  EXPECT_EQ(solo.gbest_position, served.gbest_position);
  EXPECT_EQ(solo.gbest_history, served.gbest_history);
  EXPECT_EQ(solo.iterations, served.iterations);
  EXPECT_EQ(solo.modeled_seconds, served.modeled_seconds);
  expect_counters_equal(solo.counters, served.counters);
  EXPECT_EQ(solo.modeled_breakdown.buckets(),
            served.modeled_breakdown.buckets());
}

const std::vector<core::Result>& mixed_solo_results() {
  static const std::vector<core::Result>* results = [] {
    auto* r = new std::vector<core::Result>();
    for (const JobSpec& spec : mixed_specs()) {
      r->push_back(solo_run(spec));
    }
    return r;
  }();
  return *results;
}

SchedulerOptions base_options() {
  SchedulerOptions options;
  options.streams = 4;  // pinned: tests must not depend on the env default
  options.max_active = 8;
  return options;
}

// ---- differential suite --------------------------------------------------

TEST(ServeDifferential, FifoMatchesSoloBitwise) {
  const auto specs = mixed_specs();
  const auto& solo = mixed_solo_results();
  const auto served = serve_run(specs, base_options());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i) + " " +
                 JobShape::of(specs[i]).to_string());
    expect_bitwise_equal(solo[i], served[i]);
  }
}

TEST(ServeDifferential, AllPoliciesAndSubmissionOrdersMatchSolo) {
  const auto specs = mixed_specs();
  const auto& solo = mixed_solo_results();

  // Three submission orders: as-is, reversed, and a fixed shuffle.
  std::vector<std::vector<std::size_t>> orders;
  std::vector<std::size_t> identity(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    identity[i] = i;
  }
  orders.push_back(identity);
  auto reversed = identity;
  std::reverse(reversed.begin(), reversed.end());
  orders.push_back(reversed);
  auto shuffled = identity;
  std::uint64_t state = 7;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[splitmix64(state) % i]);
  }
  orders.push_back(shuffled);

  for (const Policy policy :
       {Policy::kFifo, Policy::kPriority, Policy::kFair}) {
    for (std::size_t o = 0; o < orders.size(); ++o) {
      std::vector<JobSpec> permuted;
      for (const std::size_t index : orders[o]) {
        permuted.push_back(specs[index]);
      }
      SchedulerOptions options = base_options();
      options.policy = policy;
      const auto served = serve_run(permuted, options);
      for (std::size_t i = 0; i < permuted.size(); ++i) {
        SCOPED_TRACE(std::string(to_string(policy)) + " order " +
                     std::to_string(o) + " job " +
                     std::to_string(orders[o][i]));
        expect_bitwise_equal(solo[orders[o][i]], served[i]);
      }
    }
  }
}

TEST(ServeDifferential, GraphAndBatchingSwitchesPreserveResults) {
  const auto specs = mixed_specs();
  const auto& solo = mixed_solo_results();

  std::vector<SchedulerOptions> variants;
  SchedulerOptions no_graphs = base_options();
  no_graphs.use_graphs = false;
  no_graphs.batching = false;
  variants.push_back(no_graphs);
  SchedulerOptions no_batching = base_options();
  no_batching.batching = false;
  variants.push_back(no_batching);
  SchedulerOptions one_stream = base_options();
  one_stream.streams = 1;
  one_stream.max_active = 3;
  variants.push_back(one_stream);

  for (std::size_t v = 0; v < variants.size(); ++v) {
    const auto served = serve_run(specs, variants[v]);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      SCOPED_TRACE("variant " + std::to_string(v) + " job " +
                   std::to_string(i));
      expect_bitwise_equal(solo[i], served[i]);
    }
  }
}

// ---- scheduler property tests --------------------------------------------

TEST(ServeScheduler, GraphCacheHitsAfterFirstJobOfEachShape) {
  std::vector<JobSpec> specs;
  for (int i = 0; i < 3; ++i) {
    specs.push_back(make_spec("sphere", 32, 8, 6, 10 + i));
  }
  for (int i = 0; i < 3; ++i) {
    specs.push_back(make_spec("rastrigin", 16, 4, 6, 20 + i));
  }
  ServeStats stats;
  serve_run(specs, base_options(), &stats);
  EXPECT_EQ(stats.jobs_submitted, 6u);
  EXPECT_EQ(stats.jobs_completed, 6u);
  EXPECT_EQ(stats.cache_lookups, 6u);
  EXPECT_EQ(stats.cache_hits, 4u);  // every job after the first per shape
  EXPECT_EQ(stats.graphs_captured, 2u);
  EXPECT_EQ(stats.graphs_poisoned, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 4.0 / 6.0);
  EXPECT_GT(stats.replayed_iterations, 0u);
  EXPECT_GT(stats.graph_modeled_seconds_saved, 0.0);
}

TEST(ServeScheduler, BatchingReducesLaunchesAndIsReportedOnly) {
  // Eight same-shape jobs admitted together: cohorts of up to 8 replaying
  // members form every round after the capture round. This test pins the
  // PRICED batching model (the union-rule counterfactual), so pack is
  // forced off regardless of FASTPSO_SERVE_PACK; the executed engine has
  // its own suite below (ServePacked.*).
  std::vector<JobSpec> specs;
  for (int i = 0; i < 8; ++i) {
    specs.push_back(make_spec("sphere", 32, 8, 10, 40 + i));
  }
  SchedulerOptions priced = base_options();
  priced.pack = false;
  ServeStats stats;
  serve_run(specs, priced, &stats);
  EXPECT_GT(stats.batch_rounds, 0u);
  EXPECT_LT(stats.launches_batched, stats.launches_issued);
  EXPECT_GT(stats.batch_modeled_seconds_saved, 0.0);
  EXPECT_GT(stats.batch_launch_reduction(), 0.3);
  // Reported-only: the credit subtracts from the serial-work view, it
  // never changes the issued clocks.
  EXPECT_EQ(stats.batched_modeled_seconds(),
            stats.serial_seconds - stats.batch_modeled_seconds_saved);
  EXPECT_GT(stats.batched_modeled_seconds(), 0.0);
  EXPECT_GT(stats.graph_modeled_seconds(), 0.0);
  // Priced mode executes every launch itself.
  EXPECT_EQ(stats.launches_real, stats.launches_issued);
  EXPECT_DOUBLE_EQ(stats.real_launch_reduction(), 0.0);
  EXPECT_EQ(stats.packed_cohort_rounds, 0u);

  // Batching off: identical issued launches, no packing, no credit.
  // batching=false also disables the executed engine (the tri-state's
  // "off" leg), even when FASTPSO_SERVE_PACK=1 is set.
  SchedulerOptions off = base_options();
  off.batching = false;
  ServeStats stats_off;
  serve_run(specs, off, &stats_off);
  EXPECT_EQ(stats_off.launches_issued, stats.launches_issued);
  EXPECT_EQ(stats_off.launches_batched, stats_off.launches_issued);
  EXPECT_EQ(stats_off.batch_modeled_seconds_saved, 0.0);
  EXPECT_EQ(stats_off.launches_real, stats_off.launches_issued);
  EXPECT_EQ(stats_off.packed_cohort_rounds, 0u);
}

TEST(ServeScheduler, ActiveJobsUseDisjointBuffers) {
  vgpu::Device device;
  SchedulerOptions options = base_options();
  Scheduler scheduler(device, options);
  for (const JobSpec& spec : mixed_specs()) {
    scheduler.submit(spec);
  }
  scheduler.pump();
  const auto spans = scheduler.active_buffer_spans();
  ASSERT_GT(spans.size(), 1u);
  for (std::size_t a = 0; a < spans.size(); ++a) {
    for (std::size_t b = a + 1; b < spans.size(); ++b) {
      for (const auto& [base_a, bytes_a] : spans[a]) {
        const char* lo_a = static_cast<const char*>(base_a);
        for (const auto& [base_b, bytes_b] : spans[b]) {
          const char* lo_b = static_cast<const char*>(base_b);
          const bool overlap =
              lo_a < lo_b + bytes_b && lo_b < lo_a + bytes_a;
          EXPECT_FALSE(overlap)
              << "jobs " << a << " and " << b << " share device memory";
        }
      }
    }
  }
  scheduler.run();
  EXPECT_EQ(scheduler.active_jobs(), 0);
}

TEST(ServeScheduler, RejectsUnschedulableSpecs) {
  vgpu::Device device;
  Scheduler scheduler(device, base_options());

  JobSpec overlap = make_spec("sphere", 16, 4, 5, 1);
  overlap.params.overlap_init = true;
  EXPECT_THROW(scheduler.submit(overlap), CheckError);

  JobSpec async = make_spec("sphere", 16, 4, 5, 1);
  async.params.synchronization = core::Synchronization::kAsynchronous;
  EXPECT_THROW(scheduler.submit(async), CheckError);

  JobSpec unknown = make_spec("no-such-problem", 16, 4, 5, 1);
  EXPECT_THROW(scheduler.submit(unknown), CheckError);

  JobSpec bad_ring = make_spec("sphere", 4, 4, 5, 1);
  bad_ring.params.topology = core::Topology::kRing;
  bad_ring.params.ring_neighbors = 2;  // 2*2+1 > 4 particles
  EXPECT_THROW(scheduler.submit(bad_ring), CheckError);

  // The rest of PsoParams::validate(), one field per case.
  EXPECT_THROW(scheduler.submit(make_spec("sphere", 0, 4, 5, 1)), CheckError);
  EXPECT_THROW(scheduler.submit(make_spec("sphere", 16, 0, 5, 1)), CheckError);
  EXPECT_THROW(scheduler.submit(make_spec("sphere", 16, 4, 0, 1)), CheckError);
  JobSpec ring = make_spec("sphere", 16, 4, 5, 1);
  ring.params.topology = core::Topology::kRing;
  for (const core::UpdateTechnique technique :
       {core::UpdateTechnique::kSharedMemory,
        core::UpdateTechnique::kTensorCore}) {
    JobSpec spec = ring;
    spec.params.technique = technique;
    EXPECT_THROW(scheduler.submit(spec), CheckError) << to_string(technique);
  }
  JobSpec no_neighbors = ring;
  no_neighbors.params.ring_neighbors = 0;
  EXPECT_THROW(scheduler.submit(no_neighbors), CheckError);

  JobSpec bad_arrival = make_spec("sphere", 16, 4, 5, 1);
  bad_arrival.arrival_seconds = -1.0;
  EXPECT_THROW(scheduler.submit(bad_arrival), CheckError);

  // The scheduler is still usable after rejected submissions.
  scheduler.submit(make_spec("sphere", 16, 4, 5, 1));
  scheduler.run();
  EXPECT_EQ(scheduler.outcomes().size(), 1u);
}

// Fusion pricing is gone; its option survives only as an inert field, and
// turning it on is rejected rather than silently ignored.
TEST(ServeScheduler, RejectsFuseOption) {
  vgpu::Device device;
  SchedulerOptions options = base_options();
  options.fuse = true;
  EXPECT_THROW({ Scheduler scheduler(device, options); }, CheckError);
}

// ---- executed packing (FASTPSO_SERVE_PACK / options.pack) ----------------

// The packed engine's own differential suite: lockstep cohort stepping
// with merged block/warp-per-job dispatches must leave every job's Result
// bitwise identical to solo, across admission policies, cohort sizes and
// mixed shapes. These force pack on regardless of the env.

SchedulerOptions packed_options() {
  SchedulerOptions options = base_options();
  options.pack = true;
  return options;
}

std::vector<JobSpec> cohort_specs(int count) {
  std::vector<JobSpec> specs;
  for (int i = 0; i < count; ++i) {
    specs.push_back(make_spec("sphere", 32, 8, 8, 900 + i));
  }
  return specs;
}

TEST(ServePacked, PackedMatchesSoloBitwiseAcrossPoliciesAndCohortSizes) {
  const auto all_specs = cohort_specs(16);
  std::vector<core::Result> solo;
  for (const JobSpec& spec : all_specs) {
    solo.push_back(solo_run(spec));
  }
  for (const Policy policy :
       {Policy::kFifo, Policy::kPriority, Policy::kFair}) {
    for (const int k : {2, 4, 16}) {
      const std::vector<JobSpec> specs(all_specs.begin(),
                                       all_specs.begin() + k);
      SchedulerOptions options = packed_options();
      options.policy = policy;
      options.max_active = 16;
      ServeStats stats;
      const auto served = serve_run(specs, options, &stats);
      SCOPED_TRACE(std::string(to_string(policy)) + " k=" +
                   std::to_string(k));
      for (int i = 0; i < k; ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        expect_bitwise_equal(solo[static_cast<std::size_t>(i)], served
                                 [static_cast<std::size_t>(i)]);
      }
      // Same-shape jobs admitted together must actually pack, and packing
      // must remove real dispatches, not just price them.
      EXPECT_GT(stats.packed_cohort_rounds, 0u);
      EXPECT_GT(stats.packed_dispatches, 0u);
      EXPECT_LT(stats.launches_real, stats.launches_issued);
      EXPECT_GT(stats.real_launch_reduction(), 0.0);
      EXPECT_GT(stats.batch_modeled_seconds_saved, 0.0);
    }
  }
}

TEST(ServePacked, MixedShapesMatchSoloBitwise) {
  const auto specs = mixed_specs();
  const auto& solo = mixed_solo_results();
  SchedulerOptions options = packed_options();
  ServeStats stats;
  const auto served = serve_run(specs, options, &stats);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    expect_bitwise_equal(solo[i], served[i]);
  }
  EXPECT_GT(stats.packed_cohort_rounds, 0u);
  EXPECT_LE(stats.launches_real, stats.launches_issued);
}

TEST(ServePacked, WarpPerJobSubPackingOnTinyShapes) {
  // levy 8x2: every element launch spans at most 16 elements — far below
  // the warp-utilization threshold of a 256-thread block — so each job
  // occupies whole warps inside one shared block (warp-per-job mode).
  std::vector<JobSpec> tiny;
  for (int i = 0; i < 6; ++i) {
    tiny.push_back(make_spec("levy", 8, 2, 12, 700 + i));
  }
  SchedulerOptions options = packed_options();
  ServeStats stats;
  const auto served = serve_run(tiny, options, &stats);
  for (std::size_t i = 0; i < tiny.size(); ++i) {
    SCOPED_TRACE("tiny job " + std::to_string(i));
    expect_bitwise_equal(solo_run(tiny[i]), served[i]);
  }
  EXPECT_GT(stats.packed_warp_dispatches, 0u);
  EXPECT_LE(stats.packed_warp_dispatches, stats.packed_dispatches);

  // Threshold boundary: sphere 16x8 issues 128-element launches — exactly
  // kWarpThreshold * block (0.5 * 256), which the strict `<` comparison
  // keeps in block-per-job mode — alongside tiny per-particle launches
  // that still sub-pack. Both modes must coexist in one cohort.
  std::vector<JobSpec> boundary;
  for (int i = 0; i < 4; ++i) {
    boundary.push_back(make_spec("sphere", 16, 8, 10, 800 + i));
  }
  ServeStats boundary_stats;
  const auto boundary_served = serve_run(boundary, options, &boundary_stats);
  for (std::size_t i = 0; i < boundary.size(); ++i) {
    SCOPED_TRACE("boundary job " + std::to_string(i));
    expect_bitwise_equal(solo_run(boundary[i]), boundary_served[i]);
  }
  EXPECT_GT(boundary_stats.packed_dispatches,
            boundary_stats.packed_warp_dispatches);
  EXPECT_GT(boundary_stats.packed_warp_dispatches, 0u);
}

TEST(ServePacked, CohortLargerThanMaxCohortSplitsAndMatchesSoloBitwise) {
  // A same-shape cohort wider than kMaxCohort (16) splits each merged node
  // into chunks, one packed dispatch per chunk — the regime of the tiny
  // serve workload, which admits up to 128 jobs at once. Cohort dispatches
  // execute on the host fast path only, so it is pinned on.
  const FastPathGuard fast(true);
  std::vector<JobSpec> specs;
  for (int i = 0; i <= kMaxCohort; ++i) {
    specs.push_back(make_spec("sphere", 16, 4, 6, 1200 + i));
  }
  SchedulerOptions options = packed_options();
  options.max_active = 32;

  ServeStats split_stats;
  const auto served = serve_run(specs, options, &split_stats);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    expect_bitwise_equal(solo_run(specs[i]), served[i]);
  }

  // The same jobs minus one fit one chunk: the extra job costs a second
  // dispatch per merged node instead of riding the first.
  const std::vector<JobSpec> whole(specs.begin(), specs.end() - 1);
  ServeStats whole_stats;
  serve_run(whole, options, &whole_stats);
  EXPECT_GT(whole_stats.packed_dispatches, 0u);
  EXPECT_GT(split_stats.packed_dispatches, whole_stats.packed_dispatches);
}

TEST(ServePacked, StressFiveHundredJobsPackedSampleMatchesSolo) {
  const auto specs = stress_specs(500, 2024);
  SchedulerOptions options = packed_options();
  options.max_active = 16;
  ServeStats stats;
  const auto served = serve_run(specs, options, &stats);

  EXPECT_EQ(stats.jobs_submitted, 500u);
  EXPECT_EQ(stats.jobs_completed, 500u);
  EXPECT_EQ(stats.graphs_poisoned, 0u);
  EXPECT_GT(stats.packed_cohort_rounds, 0u);
  EXPECT_GT(stats.packed_iterations, 0u);
  EXPECT_LT(stats.launches_real, stats.launches_issued);
  std::uint64_t state = 31337;
  for (int s = 0; s < 8; ++s) {
    const std::size_t index = splitmix64(state) % specs.size();
    SCOPED_TRACE("sampled job " + std::to_string(index));
    expect_bitwise_equal(solo_run(specs[index]), served[index]);
  }
}

// ---- seeded stress -------------------------------------------------------

TEST(ServeStress, FiveHundredMixedJobsAllFinishAndSampleMatchesSolo) {
  const auto specs = stress_specs(500, 2024);
  SchedulerOptions options = base_options();
  options.max_active = 16;
  ServeStats stats;
  const auto served = serve_run(specs, options, &stats);

  EXPECT_EQ(stats.jobs_submitted, 500u);
  EXPECT_EQ(stats.jobs_completed, 500u);
  EXPECT_EQ(stats.graphs_poisoned, 0u);
  EXPECT_GT(stats.hit_rate(), 0.9);  // 8 shapes, 500 jobs
  for (const core::Result& result : served) {
    EXPECT_GE(result.iterations, 1);
  }

  // Per-job counters of a seeded sample must match fresh solo reruns
  // bitwise — the scheduled run left no trace in any job's accounting.
  std::uint64_t state = 99;
  for (int s = 0; s < 10; ++s) {
    const std::size_t index = splitmix64(state) % specs.size();
    SCOPED_TRACE("sampled job " + std::to_string(index));
    expect_bitwise_equal(solo_run(specs[index]), served[index]);
  }
}

TEST(ServeStress, StatsAndTimelineAreDeterministicAcrossRuns) {
  const auto specs = stress_specs(200, 7);
  SchedulerOptions options = base_options();
  options.policy = Policy::kFair;
  options.max_active = 12;

  const auto run_once = [&](ServeStats& stats,
                            std::vector<double>& finishes) {
    vgpu::Device device;
    Scheduler scheduler(device, options);
    for (const JobSpec& spec : specs) {
      scheduler.submit(spec);
    }
    scheduler.run();
    stats = scheduler.stats();
    for (const JobOutcome& out : scheduler.outcomes()) {
      finishes.push_back(out.finish_seconds);
    }
  };

  ServeStats first, second;
  std::vector<double> finishes_first, finishes_second;
  run_once(first, finishes_first);
  run_once(second, finishes_second);

  EXPECT_EQ(first.iterations, second.iterations);
  EXPECT_EQ(first.cache_lookups, second.cache_lookups);
  EXPECT_EQ(first.cache_hits, second.cache_hits);
  EXPECT_EQ(first.launches_issued, second.launches_issued);
  EXPECT_EQ(first.launches_batched, second.launches_batched);
  EXPECT_EQ(first.batch_rounds, second.batch_rounds);
  EXPECT_EQ(first.batch_modeled_seconds_saved,
            second.batch_modeled_seconds_saved);
  EXPECT_EQ(first.graph_modeled_seconds_saved,
            second.graph_modeled_seconds_saved);
  EXPECT_EQ(first.makespan_seconds, second.makespan_seconds);
  EXPECT_EQ(first.serial_seconds, second.serial_seconds);
  EXPECT_EQ(first.scheduler_seconds, second.scheduler_seconds);
  EXPECT_EQ(finishes_first, finishes_second);
}

TEST(ServeStress, StreamsOverlapJobs) {
  // With several streams the shared timeline must beat fully serial
  // execution; sanity anchor for the makespan/serial split in ServeStats.
  const auto specs = stress_specs(60, 5);
  SchedulerOptions options = base_options();
  ServeStats stats;
  serve_run(specs, options, &stats);
  EXPECT_LT(stats.makespan_seconds, stats.serial_seconds);
  EXPECT_GT(stats.makespan_seconds, 0.0);
}

// ---- golden trace --------------------------------------------------------

#ifdef FASTPSO_GOLDEN_DIR
// A fixed 10-job schedule's Chrome trace must match the checked-in golden
// byte for byte: per-stream job lanes, modeled admit/finish timestamps and
// the JSON encoding itself. Scheduling is driven purely by modeled values,
// so the bytes are machine- and compiler-independent.
//
// Refresh after an intentional change:
//   FASTPSO_REFRESH_GOLDEN=1 ./build/tests/test_serve
//       --gtest_filter='ServeGolden.*'
TEST(ServeGolden, TraceMatchesGoldenFile) {
  std::vector<JobSpec> specs;
  for (int i = 0; i < 10; ++i) {
    JobSpec spec = (i % 3 == 0)
                       ? make_spec("rastrigin", 16, 4, 4 + i % 4, 70 + i)
                       : make_spec("sphere", 32, 8, 3 + i % 5, 50 + i);
    spec.arrival_seconds = static_cast<double>(i) * 5e-6;
    spec.tenant = i % 2;
    specs.push_back(spec);
  }
  vgpu::Device device;
  SchedulerOptions options;
  options.policy = Policy::kFifo;
  options.streams = 2;
  options.max_active = 4;
  options.pack = false;  // this golden pins the UNPACKED schedule
  Scheduler scheduler(device, options);
  for (const JobSpec& spec : specs) {
    scheduler.submit(spec);
  }
  scheduler.run();
  const std::string json = chrome_trace_json(scheduler.trace());

  const std::string path =
      std::string(FASTPSO_GOLDEN_DIR) + "/serve_trace.json";
  const char* refresh = std::getenv("FASTPSO_REFRESH_GOLDEN");
  if (refresh != nullptr && refresh[0] == '1') {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << json;
    GTEST_SKIP() << "golden refreshed: " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden " << path
      << " — generate with FASTPSO_REFRESH_GOLDEN=1";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(json, golden.str())
      << "schedule trace diverged from golden; if intentional, refresh "
         "with FASTPSO_REFRESH_GOLDEN=1";
}

// The same fixed schedule with executed packing on: the trace gains one
// "cohort <shape> k=N" event per member lane (cat "pack") spanning the
// cohort's lockstep round, and job timings shift to the packed timeline.
// Byte-compared against its own golden.
TEST(ServeGolden, PackedTraceHasCohortEventsAndMatchesGolden) {
  std::vector<JobSpec> specs;
  for (int i = 0; i < 10; ++i) {
    JobSpec spec = (i % 3 == 0)
                       ? make_spec("rastrigin", 16, 4, 4 + i % 4, 70 + i)
                       : make_spec("sphere", 32, 8, 3 + i % 5, 50 + i);
    spec.arrival_seconds = static_cast<double>(i) * 5e-6;
    spec.tenant = i % 2;
    specs.push_back(spec);
  }
  vgpu::Device device;
  SchedulerOptions options;
  options.policy = Policy::kFifo;
  options.streams = 2;
  options.max_active = 4;
  options.pack = true;
  Scheduler scheduler(device, options);
  for (const JobSpec& spec : specs) {
    scheduler.submit(spec);
  }
  scheduler.run();
  const std::string json = chrome_trace_json(scheduler.trace());

  // One pack-lane event per cohort member: a cohort of k >= 2 contributes
  // at least two.
  std::size_t pack_events = 0;
  for (std::size_t pos = json.find("\"cat\": \"pack\"");
       pos != std::string::npos;
       pos = json.find("\"cat\": \"pack\"", pos + 1)) {
    ++pack_events;
  }
  EXPECT_GE(pack_events, 2u);
  EXPECT_NE(json.find("cohort "), std::string::npos);

  const std::string path =
      std::string(FASTPSO_GOLDEN_DIR) + "/serve_trace_packed.json";
  const char* refresh = std::getenv("FASTPSO_REFRESH_GOLDEN");
  if (refresh != nullptr && refresh[0] == '1') {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << json;
    GTEST_SKIP() << "golden refreshed: " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden " << path
      << " — generate with FASTPSO_REFRESH_GOLDEN=1";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(json, golden.str())
      << "packed schedule trace diverged from golden; if intentional, "
         "refresh with FASTPSO_REFRESH_GOLDEN=1";
}
#endif  // FASTPSO_GOLDEN_DIR

}  // namespace
}  // namespace fastpso::serve
