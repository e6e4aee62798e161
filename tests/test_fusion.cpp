// vgpu::graph::FusionPass — graph-level kernel fusion (DESIGN.md §9).
//
// Fusion is a pure pricing/scheduling optimization over the captured node
// list: under paired replay it must change no result bit, no counter, no
// breakdown bucket, no prof event and no san trace, while its *reported*
// stats prove real groups formed and real launches were priced away. The
// pass runs where serve runs it — serve::GraphCache with fuse on — so the
// optimizer-level checks step a core::JobRun through a fusing GraphCache
// exactly as serve::Scheduler brackets a job. This suite pins that
// contract:
//
//   * legality — property tests on hand-built graphs: aligned
//     producer/consumer chains fuse with their intermediate traffic elided;
//     misaligned RAW/WAR/WAW hazards block; memcpy, reduction (barrier) and
//     footprint-less nodes are never crossed; shape/stream mismatches split
//     runs; an outside reader keeps the producer's write in the merged spec;
//   * optimizer level — bitwise fused-vs-eager equivalence on the four
//     Table 1 problems for the sync and ring variants, with the sync
//     pipeline's per-iteration launch count reduced >=40% (d = 4) and the
//     elided intermediate traffic visible in the stats;
//   * prof/san level — the Chrome trace and the sanitizer trace of a fused
//     replayed run match the eager run's; footprints_consistent
//     cross-checks the declared footprints against a tracked sanitizer run;
//   * pricing — one clean paired replay of a fully fused three-kernel chain
//     credits exactly the plan's static saving net of the graph credit, and
//     the graph credit exactly its formula (DESIGN.md §8).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "benchkit/runner.h"
#include "core/best_update.h"
#include "core/job_run.h"
#include "core/launch_policy.h"
#include "core/objective.h"
#include "core/optimizer.h"
#include "core/params.h"
#include "core/swarm_state.h"
#include "problems/problem.h"
#include "serve/graph_cache.h"
#include "switch_guards.h"
#include "vgpu/buffer.h"
#include "vgpu/device.h"
#include "vgpu/graph/fusion.h"
#include "vgpu/graph/graph.h"
#include "vgpu/memory_pool.h"
#include "vgpu/prof/prof.h"
#include "vgpu/san/sanitizer.h"
#include "vgpu/san/tracked.h"

namespace fastpso {
namespace {

using vgpu::graph::BufferUse;
using vgpu::graph::FusionPass;
using vgpu::graph::FusionStats;
using vgpu::graph::Graph;
using vgpu::graph::GraphExec;
using vgpu::graph::Node;
using vgpu::graph::NodeKind;

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

void expect_results_equal(const core::Result& fused,
                          const core::Result& eager) {
  EXPECT_EQ(fused.gbest_value, eager.gbest_value);
  EXPECT_TRUE(bits_equal(fused.gbest_position, eager.gbest_position));
  EXPECT_TRUE(bits_equal(fused.gbest_history, eager.gbest_history));
  EXPECT_EQ(fused.iterations, eager.iterations);
  EXPECT_EQ(fused.modeled_seconds, eager.modeled_seconds);
  EXPECT_EQ(fused.modeled_breakdown.buckets(),
            eager.modeled_breakdown.buckets());
  expect_counters_equal(fused.counters, eager.counters);
}

// ---- hand-built graph helpers --------------------------------------------

constexpr std::int64_t kElems = 64;
constexpr double kFloat = sizeof(float);

vgpu::KernelCostSpec cost_rw(double flops, double read_bytes,
                             double write_bytes) {
  vgpu::KernelCostSpec cost;
  cost.flops = flops;
  cost.dram_read_bytes = read_bytes;
  cost.dram_write_bytes = write_bytes;
  return cost;
}

/// Element-sliced access of `elems` floats (element i touches float i).
BufferUse scalar_use(const float* base, std::int64_t elems, bool write,
                     const char* name) {
  return {base, static_cast<double>(elems) * kFloat,
          static_cast<std::int64_t>(kFloat), write, name};
}

/// Broadcast / whole-span access (elem_bytes 0 — never aligned).
BufferUse span_use(const float* base, std::int64_t elems, bool write,
                   const char* name) {
  return {base, static_cast<double>(elems) * kFloat, 0, write, name};
}

/// Records one element-wise kernel with a declared footprint. One float of
/// read traffic per declared read use, one of write per write use.
void add_kernel(Graph& g, const char* label, std::vector<BufferUse> uses,
                std::int64_t elems = kElems, std::int64_t grid = 1,
                int block = 64, int stream = 0) {
  double reads = 0;
  double writes = 0;
  for (const BufferUse& u : uses) {
    (u.write ? writes : reads) += u.bytes;
  }
  g.record_kernel(grid, block, stream, intern_phase("test"), label,
                  cost_rw(static_cast<double>(elems), reads, writes));
  g.note_elements(elems);
  g.note_uses(std::move(uses));
}

GraphExec fused_exec(const Graph& g, vgpu::Device& device) {
  GraphExec exec = g.instantiate(device.perf());
  exec.apply_fusion(device.perf());
  return exec;
}

// ---- legality: what fuses ------------------------------------------------

TEST(FusionLegality, AlignedProducerConsumerChainFusesAndElides) {
  vgpu::Device device;
  std::vector<float> a(kElems);
  std::vector<float> b(kElems);
  std::vector<float> c(kElems);
  Graph g;
  add_kernel(g, "k1", {scalar_use(c.data(), kElems, false, "c"),
                       scalar_use(a.data(), kElems, true, "a")});
  add_kernel(g, "k2", {scalar_use(a.data(), kElems, false, "a"),
                       scalar_use(b.data(), kElems, true, "b")});
  GraphExec exec = fused_exec(g, device);

  const FusionStats& stats = exec.fusion_stats();
  EXPECT_TRUE(stats.applied);
  ASSERT_EQ(stats.groups, 1);
  EXPECT_EQ(stats.fused_members, 2);
  const GraphExec::FusedGroup& group = exec.fused_groups()[0];
  EXPECT_EQ(group.members, (std::vector<int>{0, 1}));
  EXPECT_EQ(group.label, "fused:k1+k2");
  EXPECT_EQ(group.elems, kElems);

  // Merged spec: k2's read of the intermediate `a` is elided (the value
  // flows in registers inside the fused element loop), and — with no node
  // outside the group reading `a` — so is k1's write of it. What remains is
  // k1's read of `c` and k2's write of `b`.
  EXPECT_EQ(group.merged_cost.dram_read_bytes, kElems * kFloat);
  EXPECT_EQ(group.merged_cost.dram_write_bytes, kElems * kFloat);
  EXPECT_EQ(group.merged_cost.flops, 2.0 * kElems);
  EXPECT_EQ(stats.elided_read_bytes, kElems * kFloat);
  EXPECT_EQ(stats.elided_write_bytes, kElems * kFloat);
  // Less traffic at equal flops: the fused node prices at or below the sum.
  EXPECT_LT(group.static_fused_seconds, group.static_member_seconds);
  EXPECT_EQ(exec.nodes()[0].fuse_group, 0);
  EXPECT_EQ(exec.nodes()[1].fuse_group, 0);
}

TEST(FusionLegality, OutsideReaderKeepsProducerWrite) {
  vgpu::Device device;
  std::vector<float> a(kElems);
  std::vector<float> b(kElems);
  Graph g;
  add_kernel(g, "k1", {scalar_use(a.data(), kElems, true, "a")});
  add_kernel(g, "k2", {scalar_use(a.data(), kElems, false, "a"),
                       scalar_use(b.data(), kElems, true, "b")});
  // A shape-incompatible consumer outside the group: the graph replays in a
  // loop, so even a *preceding* outside reader would count.
  add_kernel(g, "k3", {span_use(a.data(), kElems, false, "a")},
             /*elems=*/kElems * 2, /*grid=*/2);
  GraphExec exec = fused_exec(g, device);

  const FusionStats& stats = exec.fusion_stats();
  ASSERT_EQ(stats.groups, 1);
  const GraphExec::FusedGroup& group = exec.fused_groups()[0];
  EXPECT_EQ(group.members, (std::vector<int>{0, 1}));
  // The consumer's read is still elided; the producer's write is not.
  EXPECT_EQ(stats.elided_read_bytes, kElems * kFloat);
  EXPECT_EQ(stats.elided_write_bytes, 0.0);
  EXPECT_EQ(group.merged_cost.dram_write_bytes, 2.0 * kElems * kFloat);
  EXPECT_EQ(exec.nodes()[2].fuse_group, -1);
}

TEST(FusionLegality, OpaqueNodeCountsAsReaderOfEverything) {
  vgpu::Device device;
  std::vector<float> a(kElems);
  std::vector<float> b(kElems);
  Graph g;
  add_kernel(g, "k1", {scalar_use(a.data(), kElems, true, "a")});
  add_kernel(g, "k2", {scalar_use(a.data(), kElems, false, "a"),
                       scalar_use(b.data(), kElems, true, "b")});
  // No footprint: never fuses, and may read anything — both writes stay.
  g.record_kernel(2, 64, 0, intern_phase("test"), "opaque",
                  cost_rw(kElems, kElems * kFloat, 0));
  GraphExec exec = fused_exec(g, device);

  ASSERT_EQ(exec.fusion_stats().groups, 1);
  EXPECT_EQ(exec.fusion_stats().elided_read_bytes, kElems * kFloat);
  EXPECT_EQ(exec.fusion_stats().elided_write_bytes, 0.0);
}

TEST(FusionLegality, SharedReadsFuseWithoutElision) {
  vgpu::Device device;
  std::vector<float> in(kElems);
  std::vector<float> b(kElems);
  std::vector<float> c(kElems);
  Graph g;
  add_kernel(g, "k1", {span_use(in.data(), kElems, false, "in"),
                       scalar_use(b.data(), kElems, true, "b")});
  add_kernel(g, "k2", {span_use(in.data(), kElems, false, "in"),
                       scalar_use(c.data(), kElems, true, "c")});
  GraphExec exec = fused_exec(g, device);

  // Two broadcast reads of the same storage never conflict; nothing flows
  // between the members, so nothing is elided.
  ASSERT_EQ(exec.fusion_stats().groups, 1);
  EXPECT_EQ(exec.fusion_stats().fused_members, 2);
  EXPECT_EQ(exec.fusion_stats().elided_read_bytes, 0.0);
  EXPECT_EQ(exec.fusion_stats().elided_write_bytes, 0.0);
}

// ---- legality: what blocks -----------------------------------------------

TEST(FusionLegality, BroadcastConsumerOfFreshWriteBlocks) {
  vgpu::Device device;
  std::vector<float> a(kElems);
  std::vector<float> b(kElems);
  Graph g;
  add_kernel(g, "k1", {scalar_use(a.data(), kElems, true, "a")});
  // Element i reads ALL of `a` (elem_bytes 0): under back-to-back
  // per-element execution it would see element i+1's value stale — hazard.
  add_kernel(g, "k2", {span_use(a.data(), kElems, false, "a"),
                       scalar_use(b.data(), kElems, true, "b")});
  GraphExec exec = fused_exec(g, device);
  EXPECT_EQ(exec.fusion_stats().groups, 0);
  EXPECT_TRUE(FusionPass::hazard(exec.nodes()[0].node, exec.nodes()[1].node));
}

TEST(FusionLegality, MisalignedWriteWriteBlocks) {
  vgpu::Device device;
  std::vector<float> a(kElems);
  Graph g;
  add_kernel(g, "k1", {scalar_use(a.data(), kElems, true, "a")});
  // Same storage written with a different element slicing: WAW hazard.
  add_kernel(g, "k2", {{a.data(), static_cast<double>(kElems) * kFloat,
                        static_cast<std::int64_t>(2 * kFloat), true, "a"}});
  GraphExec exec = fused_exec(g, device);
  EXPECT_EQ(exec.fusion_stats().groups, 0);
}

TEST(FusionLegality, InteriorPointerOverlapBlocks) {
  vgpu::Device device;
  std::vector<float> a(kElems * 2);
  std::vector<float> b(kElems);
  Graph g;
  add_kernel(g, "k1", {scalar_use(a.data(), kElems, true, "a_lo")});
  // Reads a shifted window of the same allocation: overlapping but not
  // aligned (different base) — the gbest-copy aliasing pattern.
  add_kernel(g, "k2", {scalar_use(a.data() + 1, kElems, false, "a_shift"),
                       scalar_use(b.data(), kElems, true, "b")});
  GraphExec exec = fused_exec(g, device);
  EXPECT_EQ(exec.fusion_stats().groups, 0);
}

TEST(FusionLegality, MemcpyNodeIsNeverCrossed) {
  vgpu::Device device;
  std::vector<float> a(kElems);
  std::vector<float> b(kElems);
  std::vector<float> host(kElems);
  Graph g;
  add_kernel(g, "k1", {scalar_use(a.data(), kElems, true, "a")});
  g.record_memcpy(NodeKind::kMemcpyD2H, host.data(), a.data(),
                  static_cast<double>(kElems) * kFloat, 0,
                  intern_phase("test"));
  add_kernel(g, "k2", {scalar_use(a.data(), kElems, false, "a"),
                       scalar_use(b.data(), kElems, true, "b")});
  GraphExec exec = fused_exec(g, device);
  EXPECT_EQ(exec.fusion_stats().groups, 0);
}

TEST(FusionLegality, ReductionNodeIsNeverCrossedOrJoined) {
  vgpu::Device device;
  std::vector<float> a(kElems);
  std::vector<float> b(kElems);
  Graph g;
  add_kernel(g, "k1", {scalar_use(a.data(), kElems, true, "a")});
  // A shared-memory tree reduction: barriers > 0 makes it unfusible even
  // with a declared footprint, and it terminates the run.
  {
    vgpu::KernelCostSpec cost = cost_rw(kElems, kElems * kFloat, kFloat);
    cost.barriers = 6;
    g.record_kernel(1, 64, 0, intern_phase("test"), "reduce", cost);
    g.note_elements(kElems);
    g.note_uses({scalar_use(a.data(), kElems, false, "a")});
  }
  add_kernel(g, "k2", {scalar_use(a.data(), kElems, false, "a"),
                       scalar_use(b.data(), kElems, true, "b")});
  GraphExec exec = fused_exec(g, device);
  EXPECT_EQ(exec.fusion_stats().groups, 0);
  EXPECT_FALSE(FusionPass::fusible(exec.nodes()[1].node));
}

TEST(FusionLegality, MissingFootprintBlocksFusion) {
  vgpu::Device device;
  std::vector<float> a(kElems);
  Graph g;
  add_kernel(g, "k1", {scalar_use(a.data(), kElems, true, "a")});
  // Same shape, no declared footprint: not fusible.
  g.record_kernel(1, 64, 0, intern_phase("test"), "k2",
                  cost_rw(kElems, 0, 0));
  g.note_elements(kElems);
  GraphExec exec = fused_exec(g, device);
  EXPECT_EQ(exec.fusion_stats().groups, 0);
  EXPECT_FALSE(FusionPass::fusible(exec.nodes()[1].node));
}

TEST(FusionLegality, ShapeAndStreamMismatchesSplitRuns) {
  vgpu::Device device;
  std::vector<float> a(kElems);
  std::vector<float> b(kElems);
  std::vector<float> c(kElems * 2);
  std::vector<float> d(kElems * 2);
  Graph g;
  // Run 1: two compatible kernels on independent buffers.
  add_kernel(g, "k1", {scalar_use(a.data(), kElems, true, "a")});
  add_kernel(g, "k2", {scalar_use(b.data(), kElems, true, "b")});
  // Run 2: a different element domain (and grid) — must not join run 1.
  add_kernel(g, "k3", {scalar_use(c.data(), kElems * 2, true, "c")},
             kElems * 2, /*grid=*/2);
  add_kernel(g, "k4", {scalar_use(d.data(), kElems * 2, true, "d")},
             kElems * 2, /*grid=*/2);
  // A stream-1 straggler: compatible shape, wrong stream — stays unfused.
  add_kernel(g, "k5", {scalar_use(a.data(), kElems, false, "a")}, kElems, 1,
             64, /*stream=*/1);
  GraphExec exec = fused_exec(g, device);

  const FusionStats& stats = exec.fusion_stats();
  ASSERT_EQ(stats.groups, 2);
  EXPECT_EQ(exec.fused_groups()[0].members, (std::vector<int>{0, 1}));
  EXPECT_EQ(exec.fused_groups()[1].members, (std::vector<int>{2, 3}));
  EXPECT_EQ(exec.nodes()[4].fuse_group, -1);
  EXPECT_FALSE(
      FusionPass::compatible(exec.nodes()[0].node, exec.nodes()[2].node));
  EXPECT_FALSE(
      FusionPass::compatible(exec.nodes()[0].node, exec.nodes()[4].node));
}

TEST(FusionLegality, ApplyFusionIsIdempotent) {
  vgpu::Device device;
  std::vector<float> a(kElems);
  std::vector<float> b(kElems);
  Graph g;
  add_kernel(g, "k1", {scalar_use(a.data(), kElems, true, "a")});
  add_kernel(g, "k2", {scalar_use(a.data(), kElems, false, "a"),
                       scalar_use(b.data(), kElems, true, "b")});
  GraphExec exec = fused_exec(g, device);
  exec.apply_fusion(device.perf());  // second run: no-op
  EXPECT_EQ(exec.fusion_stats().groups, 1);
  EXPECT_EQ(exec.fusion_stats().fused_members, 2);
}

// ---- optimizer level: bitwise fused-vs-eager ------------------------------

/// A run stepped through a fusing serve graph cache, plus its shape
/// graph's fusion bookkeeping.
struct FusedRun {
  core::Result result;
  FusionStats fusion;
};

/// Runs the synchronous pipeline with the setup of
/// core::Optimizer::optimize_sync, but brackets every iteration in a
/// serve::GraphCache with fusion on, the way serve::Scheduler does under
/// SchedulerOptions::fuse: iteration 1 captures and the fusion pass runs
/// over the instantiated graph, iterations 2..T replay it.
FusedRun run_fused(vgpu::Device& device, const core::PsoParams& params,
                   const core::Objective& objective) {
  device.reset_counters();
  device.pool().set_enabled(params.memory_caching);
  core::JobRun run(device, params, objective);
  serve::GraphCache cache(device, /*fuse=*/true);
  const serve::JobShape shape{};
  while (!run.done()) {
    const auto mode = cache.begin_iteration(shape, /*stream=*/0);
    run.step();
    cache.end_iteration(shape, mode);
  }
  FusedRun out;
  out.result = run.finish();
  const GraphExec* exec = cache.exec(shape);
  EXPECT_NE(exec, nullptr) << "the shape graph was poisoned";
  if (exec != nullptr) {
    out.fusion = exec->fusion_stats();
  }
  return out;
}

core::Result run_eager(vgpu::Device& device, const core::PsoParams& params,
                       const core::Objective& objective) {
  core::Optimizer optimizer(device, params);
  return optimizer.optimize(objective);
}

struct Variant {
  const char* name;
  std::function<void(core::PsoParams&)> apply;
  /// Minimum per-iteration launch reduction the fused sync pipeline must
  /// reach under this variant (ring appends extra launches, diluting the
  /// ratio).
  double min_reduction;
};

/// The variants the serve scheduler accepts: async runs one fused kernel
/// per iteration outside JobRun, and overlap_init needs a second stream, so
/// neither is ever captured.
const std::vector<Variant>& sync_variants() {
  static const std::vector<Variant> v = {
      {"sync", [](core::PsoParams&) {}, 0.40},
      {"ring",
       [](core::PsoParams& p) {
         p.topology = core::Topology::kRing;
         p.ring_neighbors = 1;
       },
       0.25},
  };
  return v;
}

/// The same (problem, params) run fused-and-replayed and eagerly, each on
/// a fresh device.
struct FusedVsEager {
  FusedRun fused;
  core::Result eager;
};

FusedVsEager run_both(const std::string& problem, int dim,
                      const std::function<void(core::PsoParams&)>& apply) {
  core::PsoParams params;
  params.particles = 16;
  params.dim = dim;
  params.max_iter = 6;
  params.seed = 42;
  apply(params);
  const auto prob = benchkit::make_any_problem(problem);
  const core::Objective objective =
      core::objective_from_problem(*prob, params.dim);
  vgpu::Device fused_device;
  vgpu::Device eager_device;
  return {run_fused(fused_device, params, objective),
          run_eager(eager_device, params, objective)};
}

TEST(Fusion, OptimizerVariantsBitwiseIdenticalAndLaunchesReduced) {
  const std::vector<std::string> problems = {"sphere", "griewank", "easom",
                                             "threadconf"};
  // dim = 4: the weight-fill element domain (one philox block per 4 floats)
  // equals the particle domain, so fill/eval/compare/gather share one shape
  // and the sync pipeline fuses 5 of its 8 steady-state launches.
  for (const std::string& problem : problems) {
    for (const Variant& variant : sync_variants()) {
      SCOPED_TRACE(problem + " / " + variant.name);
      const FusedVsEager runs = run_both(problem, 4, variant.apply);
      expect_results_equal(runs.fused.result, runs.eager);

      const FusionStats& stats = runs.fused.fusion;
      EXPECT_TRUE(stats.applied);
      EXPECT_GE(stats.groups, 1);
      EXPECT_EQ(stats.replays, 5u);  // max_iter - 1
      EXPECT_GE(stats.launch_reduction(), variant.min_reduction)
          << stats.launches_fused << " of " << stats.launches_eager
          << " launches left";
      EXPECT_GT(stats.modeled_seconds_saved, 0.0);
      // Intermediate traffic (perror, improved) visibly elided.
      EXPECT_GT(stats.elided_read_bytes, 0.0);
    }
  }
}

TEST(Fusion, SyncPipelineElidesIntermediateWrites) {
  // Global-memory technique, no ring: perror and improved are produced and
  // consumed entirely inside the fused group, so their writes vanish from
  // the merged spec too (nothing outside the group reads them).
  const FusedVsEager runs = run_both("sphere", 4, [](core::PsoParams&) {});
  EXPECT_GT(runs.fused.fusion.elided_write_bytes, 0.0);
}

TEST(Fusion, DimEightSplitsFillFromEvalButStillReducesAThird) {
  // dim = 8: the fill domain (2n philox blocks) no longer matches the
  // particle domain, so the pipeline fuses as {fill,fill} + {eval,compare,
  // gather} — two groups, still >= 1/3 of the launches gone.
  const FusedVsEager runs = run_both("sphere", 8, [](core::PsoParams&) {});
  expect_results_equal(runs.fused.result, runs.eager);
  EXPECT_EQ(runs.fused.fusion.groups, 2);
  EXPECT_GE(runs.fused.fusion.launch_reduction(), 1.0 / 3.0);
}

// ---- prof level ----------------------------------------------------------

// Under paired replay the fused pricing is reported, never emitted: the
// deterministic Chrome trace stays byte-identical, and in-order aggregation
// over the fused-mode profile still reproduces the device counters.
TEST(Fusion, ChromeTraceBytesIdenticalAndCountersReproduced) {
  const ProfGuard prof(true);
  core::PsoParams params;
  params.particles = 12;
  params.dim = 4;
  params.max_iter = 5;
  params.seed = 42;
  const auto problem = problems::make_problem("sphere");
  const core::Objective objective =
      core::objective_from_problem(*problem, params.dim);
  vgpu::Device fused_device;
  const FusedRun run = run_fused(fused_device, params, objective);
  vgpu::Device eager_device;
  const core::Result eager = run_eager(eager_device, params, objective);
  const core::Result& fused = run.result;
  ASSERT_FALSE(fused.profile.empty());
  EXPECT_EQ(fused.profile.chrome_trace_json(),
            eager.profile.chrome_trace_json());
  EXPECT_GE(run.fusion.groups, 1);
  EXPECT_EQ(fused.profile.kernel_count(), fused.counters.launches);
  EXPECT_EQ(fused.profile.kernel_seconds(), fused.counters.kernel_seconds);
  EXPECT_EQ(fused.profile.modeled_seconds(), fused.counters.modeled_seconds);
  EXPECT_EQ(fused.profile.seconds_by_phase(),
            fused.modeled_breakdown.buckets());
}

// ---- sanitizer level -----------------------------------------------------

std::string traced_pipeline_json(bool fuse) {
  vgpu::Device device;
  core::PsoParams params;
  params.particles = 8;
  params.dim = 3;
  params.max_iter = 2;
  params.seed = 42;
  const auto problem = problems::make_problem("sphere");
  const auto objective = core::objective_from_problem(*problem, params.dim);

  vgpu::san::Session session;
  if (fuse) {
    run_fused(device, params, objective);
  } else {
    run_eager(device, params, objective);
  }
  const vgpu::san::Report& report = session.finish();
  EXPECT_TRUE(report.clean()) << report.summary();
  return report.to_json();
}

TEST(Fusion, SanitizerTraceIgnoresFusionToggle) {
  EXPECT_EQ(traced_pipeline_json(true), traced_pipeline_json(false));
}

// The declared footprints are cross-checked against what a tracked run
// actually touched: capture the two pbest launches under a sanitizer
// session and validate the pairing.
TEST(Fusion, FootprintsConsistentWithSanitizerTrace) {
  const FastPathGuard fast(false);  // tracked views need the slow path
  vgpu::Device device;
  core::LaunchPolicy policy(device.spec());
  core::SwarmState state(device, 16, 4);
  for (std::int64_t i = 0; i < state.elements(); ++i) {
    state.positions[i] = static_cast<float>(i) * 0.25f;
  }
  for (int i = 0; i < state.n; ++i) {
    state.perror[i] = static_cast<float>(state.n - i);
  }

  vgpu::san::Session session;
  Graph g;
  device.begin_capture(g);
  core::update_pbest(device, policy, state);
  device.end_capture();
  const vgpu::san::Report& report = session.finish();
  EXPECT_TRUE(report.clean()) << report.summary();

  std::string diagnosis;
  EXPECT_TRUE(vgpu::graph::footprints_consistent(g, report, &diagnosis))
      << diagnosis;
}

TEST(Fusion, FootprintsInconsistencyIsDiagnosed) {
  const FastPathGuard fast(false);
  vgpu::Device device;
  constexpr std::int64_t kN = 32;
  std::vector<float> data(kN, 1.0f);
  std::vector<float> decoy(kN, 0.0f);
  vgpu::LaunchConfig cfg;
  cfg.grid = 1;
  cfg.block = 32;

  vgpu::san::Session session;
  Graph g;
  device.begin_capture(g);
  {
    const auto tracked =
        vgpu::san::track(data.data(), static_cast<std::size_t>(kN), "data");
    vgpu::san::KernelScope scope("fusion_test/lying_kernel");
    device.launch(cfg, cost_rw(kN, 0, kN * kFloat),
                  [&](const vgpu::ThreadCtx& t) {
                    for (std::int64_t i = t.global_id(); i < kN;
                         i += t.grid_stride()) {
                      tracked[i] = 2.0f;
                    }
                  });
    // Declared footprint names the wrong buffer: the tracked run wrote
    // `data`, the declaration only covers `decoy`.
    device.graph_note_elements(kN);
    device.graph_note_uses({scalar_use(decoy.data(), kN, true, "decoy")});
  }
  device.end_capture();
  const vgpu::san::Report& report = session.finish();

  std::string diagnosis;
  EXPECT_FALSE(vgpu::graph::footprints_consistent(g, report, &diagnosis));
  EXPECT_NE(diagnosis.find("wrote"), std::string::npos) << diagnosis;
}

// ---- pricing: exact paired-replay credits --------------------------------

/// The chain's three element kernels: a[i] = 2i, b[i] = a[i] + 1, b[i] *= 3.
struct RampKernel {
  struct Args {
    float* a;
  };
  static void element(const Args& k, std::int64_t i) {
    k.a[i] = static_cast<float>(i) * 2.0f;
  }
};
struct AddOneKernel {
  struct Args {
    const float* a;
    float* b;
  };
  static void element(const Args& k, std::int64_t i) { k.b[i] = k.a[i] + 1.0f; }
};
struct TripleKernel {
  struct Args {
    float* b;
  };
  static void element(const Args& k, std::int64_t i) { k.b[i] *= 3.0f; }
};

/// Launches the three-kernel chain — all aligned, all fusible into one
/// group. The footprints only land on the nodes of a capture.
void launch_chain(vgpu::Device& device, float* pa, float* pb,
                  std::int64_t n) {
  vgpu::LaunchConfig cfg;
  cfg.grid = 1;
  cfg.block = 64;
  device.launch_kernel<RampKernel>(
      cfg, cost_rw(static_cast<double>(n), 0, n * kFloat), n, {pa});
  device.graph_note_uses({scalar_use(pa, n, true, "a")});
  device.launch_kernel<AddOneKernel>(
      cfg, cost_rw(static_cast<double>(n), n * kFloat, n * kFloat), n,
      {pa, pb});
  device.graph_note_uses({scalar_use(pa, n, false, "a"),
                          scalar_use(pb, n, true, "b")});
  device.launch_kernel<TripleKernel>(
      cfg, cost_rw(static_cast<double>(n), n * kFloat, n * kFloat), n, {pb});
  device.graph_note_uses({scalar_use(pb, n, false, "b"),
                          scalar_use(pb, n, true, "b")});
}

// The only link between the fusion plan and a priced saving: capture the
// chain, fuse it, and replay it once through its call sites. The
// expectations follow the code's own operation order (GraphExec::
// end_replay), so they hold bit for bit.
TEST(FusionPricing, PairedReplayCreditsMatchThePlanExactly) {
  constexpr std::int64_t kN = 64;
  vgpu::Device device;
  device.set_phase("test");
  vgpu::DeviceArray<float> a(device, kN);
  vgpu::DeviceArray<float> b(device, kN);
  Graph g;
  device.begin_capture(g);
  launch_chain(device, a.data(), b.data(), kN);
  device.end_capture();
  GraphExec exec = fused_exec(g, device);
  ASSERT_EQ(exec.fusion_stats().groups, 1);
  ASSERT_EQ(exec.fusion_stats().fused_members, 3);

  const std::vector<float> zeros(kN, 0.0f);
  b.upload(zeros);
  device.begin_replay(exec);
  launch_chain(device, a.data(), b.data(), kN);
  ASSERT_TRUE(device.end_replay());

  // Paired replay still runs every member through its call site.
  std::vector<float> out(kN);
  b.download(out);
  for (std::int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)],
              (static_cast<float>(i) * 2.0f + 1.0f) * 3.0f);
  }

  const vgpu::GpuSpec& spec = device.spec();
  const double launch_s = spec.launch_overhead_us * 1e-6;
  const double node_gap_s = spec.graph_node_overhead_us * 1e-6;
  const double graph_launch_s = spec.graph_launch_overhead_us * 1e-6;

  // Fusion credit: the three members priced as one launch of the merged
  // spec, net of the two member launches the graph credit already cut to a
  // node gap.
  const GraphExec::FusedGroup& group = exec.fused_groups()[0];
  const FusionStats& fusion = exec.fusion_stats();
  EXPECT_EQ(fusion.replays, 1u);
  EXPECT_EQ(fusion.launches_eager, 3u);
  EXPECT_EQ(fusion.launches_fused, 1u);
  EXPECT_EQ(fusion.modeled_seconds_saved,
            group.static_member_seconds - group.static_fused_seconds -
                2.0 * (launch_s - node_gap_s));

  // Graph credit: three matched launches pay a node gap instead of a launch
  // overhead, and the replay pays one graph launch.
  EXPECT_EQ(exec.stats().replays, 1u);
  EXPECT_EQ(exec.stats().modeled_seconds_saved,
            3.0 * (launch_s - node_gap_s) - graph_launch_s);
}

}  // namespace
}  // namespace fastpso
