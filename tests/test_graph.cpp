// vgpu::Graph capture & replay equivalence (DESIGN.md §8).
//
// Graph mode is a pure launch-setup optimization: replaying an instantiated
// graph must change no result bit, no counter, no modeled second, no prof
// event and no sanitizer trace. This suite pins that contract:
//
//   * optimizer level — full runs on all four Table 1 problems, across the
//     sync / async / overlap_init / ring variants and the GPU baselines,
//     agree bitwise with FASTPSO_GRAPH on and off, while the graph stats
//     prove replay actually engaged (captured, instantiated, T-1 replays);
//   * prof level — the deterministic Chrome trace is byte-identical under
//     graph mode, and the graph-on profile still reproduces the device
//     counters bit-for-bit (the event-trace contract);
//   * sanitizer level — a recording Session yields a byte-identical trace
//     whatever the graph toggle says;
//   * divergence — a replayed sequence whose shape changes falls back to
//     eager accounting with correct counters and stats().diverged set;
//     conditional nodes that are captured but not re-issued are skipped
//     without spoiling the replay.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "benchkit/runner.h"
#include "common/check.h"
#include "core/objective.h"
#include "core/optimizer.h"
#include "core/params.h"
#include "problems/problem.h"
#include "vgpu/device.h"
#include "vgpu/graph/graph.h"
#include "vgpu/prof/prof.h"
#include "vgpu/san/sanitizer.h"

namespace fastpso {
namespace {

using benchkit::Impl;
using benchkit::RunOutcome;
using benchkit::RunSpec;

/// RAII toggle so a failing assertion cannot leave graph mode on for the
/// rest of the test binary.
class GraphGuard {
 public:
  explicit GraphGuard(bool enabled) : saved_(vgpu::graph::enabled()) {
    vgpu::graph::set_enabled(enabled);
  }
  ~GraphGuard() { vgpu::graph::set_enabled(saved_); }

  GraphGuard(const GraphGuard&) = delete;
  GraphGuard& operator=(const GraphGuard&) = delete;

 private:
  bool saved_;
};

/// RAII profiler toggle (FASTPSO_PROF equivalent).
class ProfGuard {
 public:
  explicit ProfGuard(bool enabled) : saved_(vgpu::prof::active()) {
    vgpu::prof::set_enabled(enabled);
  }
  ~ProfGuard() { vgpu::prof::set_enabled(saved_); }

  ProfGuard(const ProfGuard&) = delete;
  ProfGuard& operator=(const ProfGuard&) = delete;

 private:
  bool saved_;
};

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

// ---- optimizer level: variants x Table 1 problems ------------------------

struct Variant {
  const char* name;
  std::function<void(core::PsoParams&)> apply;
  /// Whether one replay covers several kernel launches, making the
  /// amortization credit (matched * per-launch saving - graph launch)
  /// positive. The async variant's fused loop is a single-node graph, so
  /// its faithful credit is negative — still reported, just not asserted
  /// positive here.
  bool multi_kernel;
};

const std::vector<Variant>& variants() {
  static const std::vector<Variant> v = {
      {"sync", [](core::PsoParams&) {}, true},
      {"async",
       [](core::PsoParams& p) {
         p.synchronization = core::Synchronization::kAsynchronous;
       },
       false},
      {"overlap_init", [](core::PsoParams& p) { p.overlap_init = true; },
       true},
      {"ring",
       [](core::PsoParams& p) {
         p.topology = core::Topology::kRing;
         p.ring_neighbors = 1;
       },
       true},
  };
  return v;
}

core::Result run_optimizer(const std::string& problem, const Variant& variant,
                           bool graph_on) {
  const GraphGuard guard(graph_on);
  vgpu::Device device;
  core::PsoParams params;
  params.particles = 16;
  params.dim = 5;
  params.max_iter = 6;
  params.seed = 42;
  variant.apply(params);
  core::Optimizer optimizer(device, params);
  const auto prob = benchkit::make_any_problem(problem);
  return optimizer.optimize(core::objective_from_problem(*prob, params.dim));
}

TEST(Graph, OptimizerVariantsBitwiseIdentical) {
  const std::vector<std::string> problems = {"sphere", "griewank", "easom",
                                             "threadconf"};
  for (const std::string& problem : problems) {
    for (const Variant& variant : variants()) {
      SCOPED_TRACE(problem + " / " + variant.name);
      const core::Result with_graph = run_optimizer(problem, variant, true);
      const core::Result eager = run_optimizer(problem, variant, false);
      expect_results_equal(with_graph, eager);

      // Replay must actually have engaged, not silently fallen to eager.
      const vgpu::graph::GraphStats& stats = with_graph.graph;
      EXPECT_TRUE(stats.enabled);
      EXPECT_TRUE(stats.instantiated);
      EXPECT_FALSE(stats.diverged);
      EXPECT_GT(stats.nodes, 0);
      EXPECT_EQ(stats.replays, 5u);  // max_iter - 1
      EXPECT_GT(stats.replayed_launches, 0u);
      if (variant.multi_kernel) {
        EXPECT_GT(stats.modeled_seconds_saved, 0.0);
        EXPECT_LT(with_graph.graph_modeled_seconds(),
                  with_graph.modeled_seconds);
      } else {
        EXPECT_NE(stats.modeled_seconds_saved, 0.0);
      }
      // Eager runs report inert stats — unless ambient FASTPSO_FUSE keeps
      // capture engaged even with the graph toggle off (the fusion pass
      // rides on capture; results above stay byte-identical either way).
      if (!vgpu::graph::fusion_enabled()) {
        EXPECT_FALSE(eager.graph.enabled);
        EXPECT_EQ(eager.graph.replays, 0u);
        EXPECT_EQ(eager.graph_modeled_seconds(), eager.modeled_seconds);
      }
    }
  }
}

// ---- baselines (gpu-pso / hgpu-pso) through the unified runner -----------

RunOutcome run_cell(Impl impl, const std::string& problem, bool graph_on) {
  const GraphGuard guard(graph_on);
  RunSpec spec;
  spec.impl = impl;
  spec.problem = problem;
  spec.particles = 20;
  spec.dim = 6;
  spec.iters = 12;
  spec.executed_iters = 6;
  spec.seed = 42;
  return benchkit::run_spec(spec);
}

TEST(Graph, BaselinesBitwiseIdentical) {
  const std::vector<std::string> problems = {"sphere", "griewank", "easom",
                                             "threadconf"};
  const std::vector<Impl> impls = {Impl::kGpuPso, Impl::kHgpuPso,
                                   Impl::kFastPso};
  for (const std::string& problem : problems) {
    for (Impl impl : impls) {
      SCOPED_TRACE(problem + " / " + benchkit::to_string(impl));
      const RunOutcome with_graph = run_cell(impl, problem, true);
      const RunOutcome eager = run_cell(impl, problem, false);
      EXPECT_EQ(with_graph.result.gbest_value, eager.result.gbest_value);
      EXPECT_TRUE(bits_equal(with_graph.result.gbest_position,
                             eager.result.gbest_position));
      EXPECT_TRUE(bits_equal(with_graph.result.gbest_history,
                             eager.result.gbest_history));
      EXPECT_EQ(with_graph.result.modeled_seconds,
                eager.result.modeled_seconds);
      EXPECT_EQ(with_graph.modeled_seconds_full, eager.modeled_seconds_full);
      expect_counters_equal(with_graph.result.counters,
                            eager.result.counters);
      EXPECT_TRUE(with_graph.result.graph.instantiated);
      EXPECT_FALSE(with_graph.result.graph.diverged);
      EXPECT_EQ(with_graph.result.graph.replays, 5u);
    }
  }
}

// ---- prof level ----------------------------------------------------------

core::Result run_profiled(bool graph_on) {
  const GraphGuard guard(graph_on);
  const ProfGuard prof(true);
  vgpu::Device device;
  core::PsoParams params;
  params.particles = 12;
  params.dim = 4;
  params.max_iter = 5;
  params.seed = 42;
  core::Optimizer optimizer(device, params);
  const auto problem = problems::make_problem("sphere");
  return optimizer.optimize(
      core::objective_from_problem(*problem, params.dim));
}

// The deterministic Chrome trace (modeled timeline; wall seconds excluded by
// design) must be byte-identical with graph mode on — replayed kernels emit
// the same events in the same order with the same doubles.
TEST(Graph, ChromeTraceBytesIdentical) {
  const core::Result with_graph = run_profiled(true);
  const core::Result eager = run_profiled(false);
  ASSERT_FALSE(with_graph.profile.empty());
  EXPECT_EQ(with_graph.profile.chrome_trace_json(),
            eager.profile.chrome_trace_json());
  EXPECT_TRUE(with_graph.graph.instantiated);
  EXPECT_FALSE(with_graph.graph.diverged);
}

// Event-trace contract under replay: in-order aggregation over the graph-on
// profile reproduces the device counters bit-for-bit, exactly as in eager
// mode (test_prof.cpp).
TEST(Graph, ProfileAggregatesReproduceCountersUnderReplay) {
  const core::Result r = run_profiled(true);
  EXPECT_TRUE(r.graph.instantiated);
  EXPECT_EQ(r.profile.kernel_count(), r.counters.launches);
  EXPECT_EQ(r.profile.kernel_seconds(), r.counters.kernel_seconds);
  EXPECT_EQ(r.profile.modeled_seconds(), r.counters.modeled_seconds);
  EXPECT_EQ(r.profile.flops(), r.counters.flops);
  EXPECT_EQ(r.profile.dram_read_fetched(), r.counters.dram_read_fetched);
  EXPECT_EQ(r.profile.dram_write_fetched(), r.counters.dram_write_fetched);
  EXPECT_EQ(r.profile.seconds_by_phase(), r.modeled_breakdown.buckets());
}

// ---- sanitizer level -----------------------------------------------------

std::string traced_pipeline_json() {
  vgpu::Device device;
  core::PsoParams params;
  params.particles = 8;
  params.dim = 3;
  params.max_iter = 2;
  params.seed = 42;
  core::Optimizer optimizer(device, params);
  const auto problem = problems::make_problem("sphere");
  const auto objective = core::objective_from_problem(*problem, params.dim);

  vgpu::san::Session session;
  optimizer.optimize(objective);
  const vgpu::san::Report& report = session.finish();
  EXPECT_TRUE(report.clean()) << report.summary();
  return report.to_json();
}

// A recording Session's launch trace is byte-identical whatever the graph
// toggle says: replay changes the accounting path's setup cost, never which
// launches happen or what they declare.
TEST(Graph, SanitizerTraceIgnoresGraphToggle) {
  std::string with_graph;
  std::string eager;
  {
    const GraphGuard guard(true);
    with_graph = traced_pipeline_json();
  }
  {
    const GraphGuard guard(false);
    eager = traced_pipeline_json();
  }
  EXPECT_EQ(with_graph, eager);
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

// ---- instantiate audit ---------------------------------------------------

TEST(Graph, InstantiateRejectsMalformedNodes) {
  vgpu::Device device;
  vgpu::graph::Graph g;
  vgpu::KernelCostSpec bad;
  bad.flops = -1.0;  // negative work: structurally invalid
  g.record_kernel(4, 128, 0, "test", nullptr, bad);
  EXPECT_THROW((void)g.instantiate(device.perf()), CheckError);

  vgpu::graph::Graph g2;
  g2.record_kernel(0, 128, 0, "test", nullptr, cost_of(1.0, 0));  // grid 0
  EXPECT_THROW((void)g2.instantiate(device.perf()), CheckError);
}

}  // namespace
}  // namespace fastpso
