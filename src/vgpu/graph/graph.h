// CUDA-Graph-style capture & replay for the virtual GPU.
//
// Motivation (paper Section 1 / DESIGN.md §8): once the host fast path and
// profiler trimmed kernel *execution*, the dominant remaining per-iteration
// cost is repeated host-side launch setup — every iteration re-runs the same
// occupancy lookups, breakdown-map lookups and prof/san bookkeeping for an
// identical sequence of launches. Real stacks solve this with CUDA Graphs:
// record the launch sequence once, validate and pre-resolve it once
// (cudaGraphInstantiate), then replay it with a single graph-launch call.
// This layer reproduces that shape:
//
//   capture     Device::begin_capture(graph) .. end_capture(): every
//               account_launch/memcpy is recorded as a Node (launch config,
//               stream, phase id, prof label, cost spec) while executing
//               and accounting *eagerly* — the capture iteration is a
//               normal iteration.
//   instantiate Graph::instantiate(perf): one-time structural audit of the
//               captured nodes plus pre-resolution of everything derivable
//               from the launch shape — occupancies and roofline
//               denominators (ResolvedLaunchShape). Each replay session
//               resolves its per-node TimeBreakdown slots by phase id.
//   replay      Device::begin_replay(exec) .. end_replay(): the caller
//               re-issues its launches; each one is matched positionally
//               against the node list and, on a match, accounted through the
//               precomputed records with zero per-node setup. Cost values
//               ALWAYS come from the live call site, and the only node data
//               consumed (occupancies, breakdown slot) is a pure function of
//               the match keys (grid, block, stream, phase) — so counters,
//               modeled seconds, breakdowns, prof events and san traces are
//               byte-identical to eager mode even for a mis-paired match.
//               A launch that finds no matching node within a bounded
//               skip-forward window marks the replay diverged and falls
//               through to eager accounting; conditional launches that were
//               captured but not re-issued are skipped harmlessly.
//
// Amortization is *reported*, never applied to device clocks or counters
// (every eager-mode golden stays byte-identical): a clean replay credits
//   saved = matched * (launch_overhead_us - graph_node_overhead_us)
//           - graph_launch_overhead_us                       [converted to s]
// into GraphStats.modeled_seconds_saved, modeling one cudaGraphLaunch per
// replay plus a residual per-node gap instead of a full per-kernel launch.
//
// The one production client is the serve layer's shape-keyed graph cache
// (serve/graph_cache.h), which captures each job shape once and replays it
// for every later same-shape job; there is no process-wide toggle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "vgpu/perf_model.h"

namespace fastpso::vgpu::graph {

enum class NodeKind : std::uint8_t {
  kKernel,
  kMemcpyH2D,
  kMemcpyD2H,
  kMemcpyD2D,
};

[[nodiscard]] const char* to_string(NodeKind kind);

/// One declared buffer access of an element-wise launch — the static
/// counterpart of the sanitizer's tracked-buffer access sets, declared at
/// the call site because per-element attribution cannot be recovered from
/// the execution hooks (grid-stride thread identity != element identity).
/// The fusion pass consumes these for hazard analysis and traffic elision;
/// san::footprints_consistent cross-checks them against what a tracked run
/// actually touched.
struct BufferUse {
  const void* base = nullptr;  ///< first byte the launch may touch
  double bytes = 0;            ///< total span touched over all elements
  /// Per-element slice: element i touches
  /// [base + i*elem_bytes, base + (i+1)*elem_bytes). 0 means the whole
  /// span per element (a broadcast read or data-dependent gather).
  std::int64_t elem_bytes = 0;
  bool write = false;
  const char* name = "";  ///< for diagnostics; static-lifetime literal

  [[nodiscard]] const char* end() const {
    return static_cast<const char*>(base) + static_cast<std::int64_t>(bytes);
  }
  /// Address-range intersection — catches interior-pointer aliasing (e.g.
  /// the gbest copy reads pbest_pos + index*d).
  [[nodiscard]] bool overlaps(const BufferUse& other) const {
    return base != nullptr && other.base != nullptr &&
           static_cast<const char*>(base) < other.end() &&
           static_cast<const char*>(other.base) < end();
  }
  /// Same per-element slicing of the same storage: element i of one access
  /// is element i of the other, so back-to-back per-element execution
  /// preserves the eager value even across a write.
  [[nodiscard]] bool aligned_with(const BufferUse& other) const {
    return base == other.base && elem_bytes == other.elem_bytes &&
           elem_bytes > 0;
  }
};

/// One captured device operation.
struct Node {
  NodeKind kind = NodeKind::kKernel;
  std::int64_t grid = 1;
  int block = 1;
  int stream = 0;
  PhaseId phase = PhaseId::kDefault;
  /// Prof label at capture time ("" when no label was pushed — labels exist
  /// only while prof::active()). Interned for introspection; replay reads
  /// the live label so prof events match eager mode trivially.
  std::string label;
  KernelCostSpec cost;     ///< as declared at capture (audit/introspection)
  void* dst = nullptr;     ///< memcpy nodes only
  const void* src = nullptr;
  double bytes = 0;        ///< memcpy nodes only
  /// Element domain of an element-wise launch (-1: not element-wise; such
  /// nodes are never fused). Noted automatically by launch_kernel while
  /// capturing, or explicitly via Device::graph_note_elements.
  std::int64_t elems = -1;
  /// Declared per-node buffer footprint (graph_note_uses). Nodes without a
  /// footprint are opaque to the fusion pass: they never fuse, and they
  /// conservatively count as readers of everything for write elision.
  std::vector<BufferUse> uses;
  bool has_uses = false;
};

/// Replay bookkeeping of one GraphExec (GraphExec::stats()).
struct GraphStats {
  bool instantiated = false;  ///< a capture completed and was instantiated
  bool diverged = false;      ///< some replay fell back to eager
  int nodes = 0;              ///< captured nodes (kernels + memcpys)
  std::uint64_t replays = 0;             ///< completed clean replays
  std::uint64_t replayed_launches = 0;   ///< launches accounted via replay
  std::uint64_t skipped_nodes = 0;       ///< captured nodes not re-issued
  std::uint64_t eager_launches = 0;      ///< replay-mode launches that fell
                                         ///< through to eager accounting
  /// Modeled seconds the amortization model credits against
  /// modeled_seconds. Reported only — never applied to device clocks.
  double modeled_seconds_saved = 0;
};

/// Fusion bookkeeping of one GraphExec (GraphExec::fusion_stats()). Like
/// GraphStats, every number here is *reported* — under paired replay the
/// fused pricing never touches device clocks, counters or traces.
struct FusionStats {
  bool applied = false;  ///< the pass ran over an instantiated graph
  int groups = 0;        ///< fused groups of >= 2 members
  int fused_members = 0; ///< member kernels across all groups
  std::uint64_t replays = 0;         ///< replays with fused pricing applied
  std::uint64_t launches_eager = 0;  ///< kernel launches as issued
  std::uint64_t launches_fused = 0;  ///< launches after fusion
  /// Modeled seconds the fused pricing saves vs per-member pricing
  /// (fewer launch overheads + elided intermediate traffic). Reported only.
  double modeled_seconds_saved = 0;
  /// Useful intermediate bytes elided between producer/consumer members.
  double elided_read_bytes = 0;
  double elided_write_bytes = 0;

  /// Fraction of per-iteration launches removed by fusion.
  [[nodiscard]] double launch_reduction() const {
    return launches_eager > 0
               ? 1.0 - static_cast<double>(launches_fused) /
                           static_cast<double>(launches_eager)
               : 0.0;
  }
};

class GraphExec;

/// An ordered record of captured device operations (cudaGraph analogue).
class Graph {
 public:
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] bool empty() const { return nodes_.empty(); }
  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  void clear() { nodes_.clear(); }

  /// Recording entry points (called by Device while capturing).
  void record_kernel(std::int64_t grid, int block, int stream,
                     PhaseId phase, const char* label,
                     const KernelCostSpec& cost);
  void record_memcpy(NodeKind kind, void* dst, const void* src, double bytes,
                     int stream, PhaseId phase);
  /// Notes the element domain of the most recently recorded node.
  void note_elements(std::int64_t elems);
  /// Attaches the declared buffer footprint of the most recent node.
  void note_uses(std::vector<BufferUse> uses);

  /// One-time validation + pre-resolution (cudaGraphInstantiate analogue).
  /// Audits every node structurally (shape within device limits, cost spec
  /// finite and non-negative, amplifications >= 1 — the same invariants the
  /// sanitizer's cost audits enforce dynamically) and precomputes each
  /// kernel node's ResolvedLaunchShape. Throws CheckError on audit failure.
  [[nodiscard]] GraphExec instantiate(const GpuPerfModel& perf) const;

 private:
  std::vector<Node> nodes_;
};

/// An instantiated graph: nodes plus everything pre-resolved for zero-setup
/// replay (cudaGraphExec analogue). Obtained from Graph::instantiate.
class GraphExec {
 public:
  /// A launch re-issued during replay may sit this many nodes ahead of the
  /// cursor (bounded skip-forward over conditional launches that were
  /// captured but not re-issued, e.g. the gbest copy).
  static constexpr std::size_t kMatchWindow = 8;

  /// Node plus its pre-resolved records.
  struct ExecNode {
    Node node;
    ResolvedLaunchShape shape;  ///< kernel nodes only
    /// Index into fused_groups(), or -1 when the node is unfused.
    int fuse_group = -1;
  };

  /// One fused run of >= 2 consecutive element-wise kernel nodes
  /// (installed by the FusionPass, vgpu/graph/fusion.h).
  struct FusedGroup {
    std::vector<int> members;  ///< node indices, in capture order
    std::int64_t elems = 0;
    std::string label;  ///< "fused:" + member labels joined with '+'
    /// The members' capture-time specs merged with intermediate
    /// producer/consumer traffic elided and only one launch overhead
    /// charged (barriers are zero by legality) — what PerfModel prices as
    /// the fused launch (static_fused_seconds).
    KernelCostSpec merged_cost;
    ResolvedLaunchShape shape;  ///< the members' shared launch shape
    /// Capture-time elision constants, subtracted from the live cost sum
    /// when pricing a paired replay (useful and fetched bytes per class).
    double elide_read_useful = 0;
    double elide_read_fetched = 0;
    double elide_write_useful = 0;
    double elide_write_fetched = 0;
    /// Capture-time pricing of the members vs the fused node (reporting).
    double static_member_seconds = 0;
    double static_fused_seconds = 0;
  };

  /// Per-session accumulator for one FusedGroup's live replay (the static
  /// plan stays on the group; the per-replay sums live with the session so
  /// interleaved sessions don't clobber each other).
  struct GroupAccum {
    KernelCostSpec live_sum;
    double member_seconds = 0;
    int matched = 0;
  };

  /// All mutable state of one paired replay. A GraphExec is a shared,
  /// effectively-immutable artifact during replay (only the aggregate
  /// stats_ accumulate); every cursor-like datum lives here so several
  /// clients — e.g. the serve layer packing a cohort of jobs over one
  /// cached exec — can hold interleaved open replays of the SAME exec,
  /// each on its own stream with its own breakdown-slot cache.
  struct ReplaySession {
    /// Stream every node is treated as issued on (-1 = capture-time
    /// streams). Set via GraphExec::set_replay_stream (legality-checked).
    int replay_stream = -1;
    std::size_t cursor = 0;
    std::uint64_t pending_matched = 0;
    bool diverged = false;
    bool open = false;
    /// Per-node breakdown accumulators, parallel to GraphExec::nodes(),
    /// resolved against the breakdown with this address and epoch. A
    /// session kept per job (the serve layer's packed path) resolves once
    /// for the job's life: the device accounts into the job's own
    /// breakdown, whose address and epoch do not change.
    std::vector<double*> slots;
    const TimeBreakdown* resolved_breakdown = nullptr;
    std::uint64_t resolved_epoch = 0;
    /// Parallel to GraphExec::fused_groups() (sized at begin_replay).
    std::vector<GroupAccum> groups;
  };

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] const std::vector<ExecNode>& nodes() const { return nodes_; }
  [[nodiscard]] const GraphStats& stats() const { return stats_; }

  // --- paired replay (driven by Device::begin_replay/end_replay) ---------
  /// Opens a replay on `session`. Rewinds the match cursor; breakdown slots
  /// are re-resolved only when the breakdown changed identity or was
  /// clear()ed or assigned since this session's last replay (epoch check).
  void begin_replay(ReplaySession& session, TimeBreakdown& breakdown,
                    int stream_count);
  /// Positional match for a re-issued kernel launch. Returns the matched
  /// node index (advancing the session cursor past it, counting skipped
  /// nodes), or -1 when the sequence diverged — the caller then accounts
  /// eagerly. The matched node's breakdown slot is session.slots[index].
  int match_kernel(ReplaySession& session, std::int64_t grid, int block,
                   int stream, PhaseId phase);
  /// Notes a launch that fell through to eager accounting during replay.
  void note_eager_launch() { ++stats_.eager_launches; }
  /// Closes the session's replay: remaining nodes count as skipped; a clean
  /// (non-diverged) replay earns the amortization credit. Returns whether
  /// the replay was clean.
  bool end_replay(ReplaySession& session);

  /// Exec-level convenience API over the built-in session (the graph
  /// cache's per-job bracket, tests). Identical semantics.
  void begin_replay(TimeBreakdown& breakdown, int stream_count) {
    begin_replay(own_session_, breakdown, stream_count);
  }
  bool end_replay() { return end_replay(own_session_); }
  [[nodiscard]] ReplaySession& own_session() { return own_session_; }

  /// Keyed-reuse hook for the serve layer's shape-indexed graph cache: one
  /// exec, captured by the first job of a shape on whatever stream that job
  /// happened to own, replays for every later same-shape job regardless of
  /// its stream assignment. Retargets replay matching so every node is
  /// treated as issued on `stream`; -1 restores capture-time streams. Legal
  /// only for graphs whose nodes all share a single stream (checked once at
  /// instantiate) — the retarget is then a pure relabeling: matching stays
  /// positional, and the clock a matched launch advances is the live
  /// current stream's, exactly as in eager mode. Set before each
  /// Device::begin_replay; sticky until changed.
  void set_replay_stream(ReplaySession& session, int stream);
  void set_replay_stream(int stream) {
    set_replay_stream(own_session_, stream);
  }
  [[nodiscard]] int replay_stream() const {
    return own_session_.replay_stream;
  }
  /// Whether every node sits on one capture-time stream (the
  /// set_replay_stream legality condition).
  [[nodiscard]] bool single_stream() const { return single_stream_; }

  // --- fusion (vgpu/graph/fusion.h) --------------------------------------
  /// Runs the FusionPass over this instantiated graph and installs its
  /// plan. After this, clean paired replays additionally price each fully
  /// matched group as a single fused launch (reported via fusion_stats(),
  /// composing with the graph credit without double counting). Nothing is
  /// executed fused: the members still run through their call sites.
  /// Idempotent.
  void apply_fusion(const GpuPerfModel& perf);
  [[nodiscard]] const std::vector<FusedGroup>& fused_groups() const {
    return fusion_groups_;
  }
  [[nodiscard]] const FusionStats& fusion_stats() const {
    return fusion_stats_;
  }
  /// Accumulates a matched member's live cost and modeled seconds into its
  /// group accumulator on `session` (called by Device::graph_account
  /// during paired replay).
  void note_member(ReplaySession& session, int group,
                   const KernelCostSpec& cost, double seconds);

 private:
  friend class Graph;
  friend class FusionPass;
  GraphExec() = default;

  void resolve_session_slots(ReplaySession& session,
                             TimeBreakdown& breakdown);

  std::vector<ExecNode> nodes_;
  double launch_overhead_s_ = 0;
  double node_gap_s_ = 0;
  double graph_launch_s_ = 0;
  /// Precomputed at instantiate: set_replay_stream legality and the
  /// stream-existence bound checked at begin_replay.
  bool single_stream_ = true;
  int max_node_stream_ = 0;

  /// Built-in session backing the exec-level replay API.
  ReplaySession own_session_;
  GraphStats stats_;

  std::vector<FusedGroup> fusion_groups_;
  FusionStats fusion_stats_;
  /// Perf model the fusion plan was priced against (outlives the exec: it
  /// belongs to the Device the graph was captured on).
  const GpuPerfModel* fusion_perf_ = nullptr;
};

}  // namespace fastpso::vgpu::graph
