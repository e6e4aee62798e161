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

/// One captured device operation.
struct Node {
  NodeKind kind = NodeKind::kKernel;
  std::int64_t grid = 1;
  int block = 1;
  int stream = 0;
  PhaseId phase = PhaseId::kDefault;
  /// Prof label at capture time ("" when no label was pushed — labels exist
  /// only while prof::active()). Names packed cohort dispatches; replay
  /// reads the live label so prof events match eager mode trivially.
  std::string label;
  /// As declared at capture: audited at instantiate and priced by the serve
  /// Batcher. Replay accounting always uses the live call site's cost.
  KernelCostSpec cost;
  double bytes = 0;  ///< memcpy nodes only (audited at instantiate)
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
  void record_memcpy(NodeKind kind, double bytes, int stream, PhaseId phase);

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

 private:
  friend class Graph;
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
};

}  // namespace fastpso::vgpu::graph
