// Graph-level kernel fusion for the virtual GPU (DESIGN.md §9).
//
// Motivation (paper Section 1; cuPSO attributes most of its gains to kernel
// organization): after graph capture/replay amortized per-launch *setup*,
// the synchronous pipeline still runs its element-wise stages — weight
// fill, evaluation, pbest compare, pbest gather — as separate kernels, each
// paying a modeled launch overhead and a full global-memory round trip for
// its intermediates (perror, improved). A real CUDA stack fuses such runs
// into one kernel; this pass prices that optimization over the captured
// node list.
//
// Legality: a fused group is a maximal run of *consecutive* kernel nodes
// that are element-wise (Node::elems > 0), carry a declared buffer
// footprint (Node::uses), have no barriers, and share element domain,
// launch shape, stream and pipe (tensor vs plain). Memcpy nodes, reduction
// nodes (barriers > 0) and non-element-wise nodes terminate a run and are
// never crossed. Within a run, a candidate joins the open group only if it
// has no data hazard against ANY current member: two accesses of the same
// storage, at least one a write, that are not element-aligned
// (BufferUse::aligned_with). Aligned same-element accesses are safe — a
// fused kernel runs the member kernels back-to-back *per element*, so
// element i's consumer reads element i's just-produced value exactly as in
// eager order, and only such groups are priced as fused. Footprints
// are declared at the call sites (per-element attribution cannot be
// recovered from execution hooks) and cross-checked against the
// sanitizer's tracked-buffer access sets by footprints_consistent().
//
// Pricing: the fused node's KernelCostSpec is the members' specs summed,
// with intermediate traffic between aligned producer/consumer pairs elided
// (the consumer's read always; the producer's write only when no node
// outside the group anywhere in the looped graph reads that storage) and
// only one launch overhead charged — so PerfModel prices the fusion the
// way a real GPU would. Fusion is a pricing pass only: under paired replay
// the members still execute through their own call sites, and the fused
// pricing is *reported* (FusionStats.modeled_seconds_saved, on top of the
// graph credit), never applied to device clocks or counters.
//
// The one caller is serve::GraphCache, which runs the pass over each
// instantiated shape graph when SchedulerOptions::fuse is set.
#pragma once

#include <string>

#include "vgpu/graph/graph.h"
#include "vgpu/perf_model.h"

namespace fastpso::vgpu::san {
struct Report;  // vgpu/san/sanitizer.h
}

namespace fastpso::vgpu::graph {

/// The instantiate-time fusion pass. Stateless; GraphExec::apply_fusion
/// delegates to run(). The legality predicates are exposed for the
/// property tests in tests/test_fusion.cpp.
class FusionPass {
 public:
  /// Plans fusion over `exec`'s node list and installs the plan (fused
  /// groups, per-node group indices, FusionStats). Idempotent.
  static void run(GraphExec& exec, const GpuPerfModel& perf);

  /// A node that may ever join a fused group: an element-wise kernel with
  /// a declared footprint and no barriers.
  [[nodiscard]] static bool fusible(const Node& node);

  /// Same element domain, launch shape, stream and pipe.
  [[nodiscard]] static bool compatible(const Node& a, const Node& b);

  /// A data hazard between a scheduled member and a candidate that
  /// back-to-back per-element execution would violate: overlapping
  /// accesses, at least one a write, not element-aligned.
  [[nodiscard]] static bool hazard(const Node& member, const Node& candidate);
};

/// Cross-checks the footprints declared on `graph`'s kernel nodes against
/// a sanitizer report of the same launch sequence: the report's launches
/// must pair 1:1 (in order, same shape) with the kernel nodes, and every
/// tracked buffer a launch actually read/wrote must overlap a declared use
/// of that direction on its node (nodes without footprints are skipped —
/// they never fuse). Returns false with a one-line `diagnosis` on the
/// first violation.
[[nodiscard]] bool footprints_consistent(const Graph& graph,
                                         const san::Report& report,
                                         std::string* diagnosis = nullptr);

}  // namespace fastpso::vgpu::graph
