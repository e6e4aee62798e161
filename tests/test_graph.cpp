// vgpu::Graph capture & replay equivalence (DESIGN.md §8).
//
// Replaying an instantiated graph is a pure launch-setup optimization: it
// must change no result bit, no counter, no modeled second, no prof event
// and no sanitizer trace. Capture and replay run where serve uses them —
// serve::GraphCache — so the optimizer-level checks step a core::JobRun
// through a GraphCache exactly as serve::Scheduler brackets a job. This
// suite pins that contract:
//
//   * optimizer level — replayed runs on all four Table 1 problems, for the
//     sync and ring variants, agree bitwise with eager core::Optimizer
//     runs, while the exec's stats prove replay actually engaged
//     (instantiated, T-1 clean replays);
//   * prof level — the deterministic Chrome trace of a replayed run is
//     byte-identical to the eager one, and the replayed profile still
//     reproduces the device counters bit-for-bit (the event-trace
//     contract);
//   * sanitizer level — a recording Session yields a byte-identical trace
//     for a replayed and an eager run;
//   * divergence — a replayed sequence whose shape changes falls back to
//     eager accounting with correct counters and stats().diverged set;
//     conditional nodes that are captured but not re-issued are skipped
//     without spoiling the replay;
//   * credit — a clean replay credits exactly the amortization formula of
//     vgpu/graph/graph.h, bit for bit.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "benchkit/runner.h"
#include "common/check.h"
#include "core/job_run.h"
#include "core/objective.h"
#include "core/optimizer.h"
#include "core/params.h"
#include "problems/problem.h"
#include "serve/graph_cache.h"
#include "switch_guards.h"
#include "vgpu/device.h"
#include "vgpu/graph/graph.h"
#include "vgpu/memory_pool.h"
#include "vgpu/prof/prof.h"
#include "vgpu/san/sanitizer.h"

namespace fastpso {
namespace {

/// Bitwise equality for float vectors (NaN-safe, distinguishes -0.0f).
bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

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

void expect_results_equal(const core::Result& graph,
                          const core::Result& eager) {
  EXPECT_EQ(graph.gbest_value, eager.gbest_value);
  EXPECT_TRUE(bits_equal(graph.gbest_position, eager.gbest_position));
  EXPECT_TRUE(bits_equal(graph.gbest_history, eager.gbest_history));
  EXPECT_EQ(graph.iterations, eager.iterations);
  EXPECT_EQ(graph.modeled_seconds, eager.modeled_seconds);
  EXPECT_EQ(graph.modeled_breakdown.buckets(),
            eager.modeled_breakdown.buckets());
  expect_counters_equal(graph.counters, eager.counters);
}

// ---- replayed vs eager runs ----------------------------------------------

/// A run stepped through the serve graph cache, plus its shape graph's
/// bookkeeping.
struct ReplayedRun {
  core::Result result;
  vgpu::graph::GraphStats stats;
};

/// Runs the synchronous pipeline with the setup of
/// core::Optimizer::optimize_sync, but brackets every iteration in a
/// serve::GraphCache the way serve::Scheduler does: iteration 1 captures,
/// iterations 2..T replay the instantiated graph.
ReplayedRun run_replayed(vgpu::Device& device, const core::PsoParams& params,
                         const core::Objective& objective) {
  device.reset_counters();
  device.pool().set_enabled(params.memory_caching);
  core::JobRun run(device, params, objective);
  serve::GraphCache cache(device);
  const serve::JobShape shape{};
  while (!run.done()) {
    const auto mode = cache.begin_iteration(shape, /*stream=*/0);
    run.step();
    cache.end_iteration(shape, mode);
  }
  ReplayedRun out;
  out.result = run.finish();
  const vgpu::graph::GraphExec* exec = cache.exec(shape);
  EXPECT_NE(exec, nullptr) << "the shape graph was poisoned";
  if (exec != nullptr) {
    out.stats = exec->stats();
  }
  return out;
}

core::Result run_eager(vgpu::Device& device, const core::PsoParams& params,
                       const core::Objective& objective) {
  core::Optimizer optimizer(device, params);
  return optimizer.optimize(objective);
}

// ---- optimizer level: variants x Table 1 problems ------------------------

/// The variants the serve scheduler accepts: async runs one fused kernel
/// per iteration outside JobRun, and overlap_init needs a second stream, so
/// neither is ever captured.
struct Variant {
  const char* name;
  std::function<void(core::PsoParams&)> apply;
};

const std::vector<Variant>& variants() {
  static const std::vector<Variant> v = {
      {"sync", [](core::PsoParams&) {}},
      {"ring",
       [](core::PsoParams& p) {
         p.topology = core::Topology::kRing;
         p.ring_neighbors = 1;
       }},
  };
  return v;
}

TEST(Graph, OptimizerVariantsBitwiseIdentical) {
  const std::vector<std::string> problems = {"sphere", "griewank", "easom",
                                             "threadconf"};
  for (const std::string& problem : problems) {
    for (const Variant& variant : variants()) {
      SCOPED_TRACE(problem + " / " + variant.name);
      core::PsoParams params;
      params.particles = 16;
      params.dim = 5;
      params.max_iter = 6;
      params.seed = 42;
      variant.apply(params);
      const auto prob = benchkit::make_any_problem(problem);
      const core::Objective objective =
          core::objective_from_problem(*prob, params.dim);
      vgpu::Device replay_device;
      const ReplayedRun replayed =
          run_replayed(replay_device, params, objective);
      vgpu::Device eager_device;
      const core::Result eager = run_eager(eager_device, params, objective);
      expect_results_equal(replayed.result, eager);

      // Replay must actually have engaged, not silently fallen to eager.
      const vgpu::graph::GraphStats& stats = replayed.stats;
      EXPECT_TRUE(stats.instantiated);
      EXPECT_FALSE(stats.diverged);
      EXPECT_GT(stats.nodes, 0);
      EXPECT_EQ(stats.replays, 5u);  // max_iter - 1
      EXPECT_GT(stats.replayed_launches, 0u);
      EXPECT_GT(stats.modeled_seconds_saved, 0.0);
    }
  }
}

// ---- prof level ----------------------------------------------------------

ReplayedRun run_profiled(bool replay) {
  const ProfGuard prof(true);
  core::PsoParams params;
  params.particles = 12;
  params.dim = 4;
  params.max_iter = 5;
  params.seed = 42;
  const auto problem = problems::make_problem("sphere");
  const core::Objective objective =
      core::objective_from_problem(*problem, params.dim);
  vgpu::Device device;
  if (replay) {
    return run_replayed(device, params, objective);
  }
  return {run_eager(device, params, objective), {}};
}

// The deterministic Chrome trace (modeled timeline; wall seconds excluded by
// design) must be byte-identical under replay — replayed kernels emit the
// same events in the same order with the same doubles.
TEST(Graph, ChromeTraceBytesIdentical) {
  const ReplayedRun replayed = run_profiled(true);
  const core::Result eager = run_profiled(false).result;
  ASSERT_FALSE(replayed.result.profile.empty());
  EXPECT_EQ(replayed.result.profile.chrome_trace_json(),
            eager.profile.chrome_trace_json());
  EXPECT_TRUE(replayed.stats.instantiated);
  EXPECT_FALSE(replayed.stats.diverged);
}

// Event-trace contract under replay: in-order aggregation over the replayed
// profile reproduces the device counters bit-for-bit, exactly as in eager
// mode (test_prof.cpp).
TEST(Graph, ProfileAggregatesReproduceCountersUnderReplay) {
  const ReplayedRun replayed = run_profiled(true);
  const core::Result& r = replayed.result;
  EXPECT_TRUE(replayed.stats.instantiated);
  EXPECT_EQ(r.profile.kernel_count(), r.counters.launches);
  EXPECT_EQ(r.profile.kernel_seconds(), r.counters.kernel_seconds);
  EXPECT_EQ(r.profile.modeled_seconds(), r.counters.modeled_seconds);
  EXPECT_EQ(r.profile.flops(), r.counters.flops);
  EXPECT_EQ(r.profile.dram_read_fetched(), r.counters.dram_read_fetched);
  EXPECT_EQ(r.profile.dram_write_fetched(), r.counters.dram_write_fetched);
  EXPECT_EQ(r.profile.seconds_by_phase(), r.modeled_breakdown.buckets());
}

// ---- sanitizer level -----------------------------------------------------

std::string traced_pipeline_json(bool replay) {
  vgpu::Device device;
  core::PsoParams params;
  params.particles = 8;
  params.dim = 3;
  params.max_iter = 2;
  params.seed = 42;
  const auto problem = problems::make_problem("sphere");
  const auto objective = core::objective_from_problem(*problem, params.dim);

  vgpu::san::Session session;
  if (replay) {
    run_replayed(device, params, objective);
  } else {
    run_eager(device, params, objective);
  }
  const vgpu::san::Report& report = session.finish();
  EXPECT_TRUE(report.clean()) << report.summary();
  return report.to_json();
}

// A recording Session's launch trace is byte-identical for a replayed and
// an eager run: replay changes the accounting path's setup cost, never
// which launches happen or what they declare.
TEST(Graph, SanitizerTraceIgnoresGraphToggle) {
  EXPECT_EQ(traced_pipeline_json(true), traced_pipeline_json(false));
}

// ---- divergence & skip-forward (hand-built sequences) --------------------

vgpu::LaunchConfig cfg_of(std::int64_t grid, int block) {
  vgpu::LaunchConfig cfg;
  cfg.grid = grid;
  cfg.block = block;
  return cfg;
}

vgpu::KernelCostSpec cost_of(double flops, double read_bytes) {
  vgpu::KernelCostSpec cost;
  cost.flops = flops;
  cost.dram_read_bytes = read_bytes;
  return cost;
}

// A replayed launch whose shape changed finds no node in the match window:
// the replay diverges, the launch (and everything after it) accounts
// eagerly, and the counters still agree with a never-graphed device.
TEST(Graph, FallbackOnShapeChange) {
  vgpu::Device device;
  device.set_phase("test");
  vgpu::graph::Graph g;
  device.begin_capture(g);
  device.account_launch(cfg_of(4, 128), cost_of(1e6, 4e4));
  device.account_launch(cfg_of(8, 256), cost_of(2e6, 8e4));
  device.end_capture();
  ASSERT_EQ(g.size(), 2u);
  vgpu::graph::GraphExec exec = g.instantiate(device.perf());

  device.begin_replay(exec);
  device.account_launch(cfg_of(4, 128), cost_of(1e6, 4e4));   // matches
  device.account_launch(cfg_of(8, 512), cost_of(2e6, 8e4));   // shape changed
  EXPECT_FALSE(device.end_replay());
  EXPECT_TRUE(exec.stats().diverged);
  EXPECT_EQ(exec.stats().replays, 0u);
  EXPECT_EQ(exec.stats().replayed_launches, 1u);
  EXPECT_EQ(exec.stats().eager_launches, 1u);
  // Divergence earns no amortization credit.
  EXPECT_EQ(exec.stats().modeled_seconds_saved, 0.0);

  // The same four launches on a never-graphed device: identical counters.
  vgpu::Device eager;
  eager.set_phase("test");
  eager.account_launch(cfg_of(4, 128), cost_of(1e6, 4e4));
  eager.account_launch(cfg_of(8, 256), cost_of(2e6, 8e4));
  eager.account_launch(cfg_of(4, 128), cost_of(1e6, 4e4));
  eager.account_launch(cfg_of(8, 512), cost_of(2e6, 8e4));
  expect_counters_equal(device.counters(), eager.counters());
  EXPECT_EQ(device.modeled_breakdown().buckets(),
            eager.modeled_breakdown().buckets());
}

// A captured-but-not-reissued node (a conditional launch like the gbest
// copy) is skipped by the bounded window without spoiling the replay.
TEST(Graph, SkipsConditionalNodeCleanly) {
  vgpu::Device device;
  device.set_phase("test");
  vgpu::graph::Graph g;
  device.begin_capture(g);
  device.account_launch(cfg_of(4, 128), cost_of(1e6, 4e4));
  device.account_launch(cfg_of(1, 64), cost_of(1e3, 256));  // conditional
  device.account_launch(cfg_of(8, 256), cost_of(2e6, 8e4));
  device.end_capture();
  vgpu::graph::GraphExec exec = g.instantiate(device.perf());

  device.begin_replay(exec);
  device.account_launch(cfg_of(4, 128), cost_of(1e6, 4e4));
  device.account_launch(cfg_of(8, 256), cost_of(2e6, 8e4));  // skips node 2
  EXPECT_TRUE(device.end_replay());
  EXPECT_FALSE(exec.stats().diverged);
  EXPECT_EQ(exec.stats().replays, 1u);
  EXPECT_EQ(exec.stats().replayed_launches, 2u);
  EXPECT_EQ(exec.stats().skipped_nodes, 1u);

  vgpu::Device eager;
  eager.set_phase("test");
  eager.account_launch(cfg_of(4, 128), cost_of(1e6, 4e4));
  eager.account_launch(cfg_of(1, 64), cost_of(1e3, 256));
  eager.account_launch(cfg_of(8, 256), cost_of(2e6, 8e4));
  eager.account_launch(cfg_of(4, 128), cost_of(1e6, 4e4));
  eager.account_launch(cfg_of(8, 256), cost_of(2e6, 8e4));
  expect_counters_equal(device.counters(), eager.counters());
}

// Replay with a cost spec that differs from capture: costs always come from
// the live call site, so the accounting tracks the caller (the pbest
// kernel's data-dependent traffic), not the stale captured values.
TEST(Graph, ReplayUsesLiveCosts) {
  vgpu::Device device;
  device.set_phase("test");
  vgpu::graph::Graph g;
  device.begin_capture(g);
  device.account_launch(cfg_of(4, 128), cost_of(1e6, 4e4));
  device.end_capture();
  vgpu::graph::GraphExec exec = g.instantiate(device.perf());

  device.begin_replay(exec);
  device.account_launch(cfg_of(4, 128), cost_of(5e6, 9e4));  // new costs
  EXPECT_TRUE(device.end_replay());

  vgpu::Device eager;
  eager.set_phase("test");
  eager.account_launch(cfg_of(4, 128), cost_of(1e6, 4e4));
  eager.account_launch(cfg_of(4, 128), cost_of(5e6, 9e4));
  expect_counters_equal(device.counters(), eager.counters());
}

// ---- amortization credit -------------------------------------------------

// The one exact check of GraphStats::modeled_seconds_saved: in a clean
// replay, three matched launches each pay a node gap instead of a launch
// overhead, and the replay pays one graph launch. The expectation follows
// GraphExec::end_replay's operation order, so it holds bit for bit.
TEST(Graph, CleanReplayCreditsExactlyThreeNodeGapsAndOneGraphLaunch) {
  vgpu::Device device;
  device.set_phase("test");
  const auto launch_three = [&device] {
    device.account_launch(cfg_of(1, 64), cost_of(64, 256));
    device.account_launch(cfg_of(2, 128), cost_of(256, 1024));
    device.account_launch(cfg_of(4, 256), cost_of(1024, 4096));
  };
  vgpu::graph::Graph g;
  device.begin_capture(g);
  launch_three();
  device.end_capture();
  vgpu::graph::GraphExec exec = g.instantiate(device.perf());

  device.begin_replay(exec);
  launch_three();
  ASSERT_TRUE(device.end_replay());

  const vgpu::GpuSpec& spec = device.spec();
  const double launch_s = spec.launch_overhead_us * 1e-6;
  const double node_gap_s = spec.graph_node_overhead_us * 1e-6;
  const double graph_launch_s = spec.graph_launch_overhead_us * 1e-6;
  EXPECT_EQ(exec.stats().replays, 1u);
  EXPECT_EQ(exec.stats().replayed_launches, 3u);
  EXPECT_EQ(exec.stats().modeled_seconds_saved,
            3.0 * (launch_s - node_gap_s) - graph_launch_s);
}

// ---- instantiate audit ---------------------------------------------------

TEST(Graph, InstantiateRejectsMalformedNodes) {
  vgpu::Device device;
  vgpu::graph::Graph g;
  vgpu::KernelCostSpec bad;
  bad.flops = -1.0;  // negative work: structurally invalid
  g.record_kernel(4, 128, 0, intern_phase("test"), nullptr, bad);
  EXPECT_THROW((void)g.instantiate(device.perf()), CheckError);

  vgpu::graph::Graph g2;
  g2.record_kernel(0, 128, 0, intern_phase("test"), nullptr,
                   cost_of(1.0, 0));  // grid 0
  EXPECT_THROW((void)g2.instantiate(device.perf()), CheckError);
}

}  // namespace
}  // namespace fastpso
