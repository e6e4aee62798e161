#include "vgpu/graph/graph.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace fastpso::vgpu::graph {

const char* to_string(NodeKind kind) {
  switch (kind) {
    case NodeKind::kKernel:
      return "kernel";
    case NodeKind::kMemcpyH2D:
      return "memcpy_h2d";
    case NodeKind::kMemcpyD2H:
      return "memcpy_d2h";
    case NodeKind::kMemcpyD2D:
      return "memcpy_d2d";
  }
  return "?";
}

// --- Graph ----------------------------------------------------------------

void Graph::record_kernel(std::int64_t grid, int block, int stream,
                          PhaseId phase, const char* label,
                          const KernelCostSpec& cost) {
  Node node;
  node.kind = NodeKind::kKernel;
  node.grid = grid;
  node.block = block;
  node.stream = stream;
  node.phase = phase;
  node.label = label != nullptr ? label : "";
  node.cost = cost;
  nodes_.push_back(std::move(node));
}

void Graph::record_memcpy(NodeKind kind, double bytes, int stream,
                          PhaseId phase) {
  FASTPSO_CHECK(kind != NodeKind::kKernel);
  Node node;
  node.kind = kind;
  node.stream = stream;
  node.phase = phase;
  node.bytes = bytes;
  nodes_.push_back(std::move(node));
}

GraphExec Graph::instantiate(const GpuPerfModel& perf) const {
  GraphExec exec;
  exec.nodes_.reserve(nodes_.size());
  const GpuSpec& spec = perf.spec();
  for (const Node& node : nodes_) {
    // Structural audit — the static half of the sanitizer's cost-spec
    // invariants. The captured launches already executed eagerly (so the
    // dynamic FASTPSO_CHECKs passed); a failure here means the capture
    // machinery itself recorded garbage.
    FASTPSO_CHECK_MSG(node.stream >= 0, "graph node on a negative stream");
    if (node.kind == NodeKind::kKernel) {
      FASTPSO_CHECK_MSG(node.grid > 0, "graph node with empty grid");
      FASTPSO_CHECK_MSG(
          node.block > 0 && node.block <= spec.max_threads_per_block,
          "graph node block size exceeds device limit");
      const KernelCostSpec& c = node.cost;
      FASTPSO_CHECK_MSG(
          std::isfinite(c.flops) && c.flops >= 0 &&
              std::isfinite(c.transcendentals) && c.transcendentals >= 0 &&
              std::isfinite(c.dram_read_bytes) && c.dram_read_bytes >= 0 &&
              std::isfinite(c.dram_write_bytes) && c.dram_write_bytes >= 0,
          "graph node with non-finite or negative cost spec");
      FASTPSO_CHECK_MSG(
          c.read_amplification >= 1.0 && c.write_amplification >= 1.0,
          "graph node with amplification below 1");
      FASTPSO_CHECK_MSG(c.barriers >= 0,
                        "graph node with negative barrier count");
    } else {
      FASTPSO_CHECK_MSG(std::isfinite(node.bytes) && node.bytes >= 0,
                        "graph memcpy node with bad byte count");
    }

    GraphExec::ExecNode exec_node;
    exec_node.node = node;
    if (node.kind == NodeKind::kKernel) {
      exec_node.shape = perf.resolve_shape(
          static_cast<double>(node.grid) * node.block);
    }
    exec.single_stream_ =
        exec.single_stream_ && node.stream == nodes_.front().stream;
    exec.max_node_stream_ = std::max(exec.max_node_stream_, node.stream);
    exec.nodes_.push_back(std::move(exec_node));
  }
  exec.launch_overhead_s_ = spec.launch_overhead_us * 1e-6;
  exec.node_gap_s_ = spec.graph_node_overhead_us * 1e-6;
  exec.graph_launch_s_ = spec.graph_launch_overhead_us * 1e-6;
  exec.stats_.instantiated = true;
  exec.stats_.nodes = static_cast<int>(exec.nodes_.size());
  return exec;
}

// --- GraphExec ------------------------------------------------------------

void GraphExec::resolve_session_slots(ReplaySession& session,
                                      TimeBreakdown& breakdown) {
  if (session.resolved_breakdown == &breakdown &&
      session.resolved_epoch == breakdown.epoch()) {
    return;
  }
  session.slots.resize(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    session.slots[i] = breakdown.slot(nodes_[i].node.phase);
  }
  session.resolved_breakdown = &breakdown;
  session.resolved_epoch = breakdown.epoch();
}

void GraphExec::set_replay_stream(ReplaySession& session, int stream) {
  FASTPSO_CHECK_MSG(!session.open,
                    "set_replay_stream during an open replay");
  if (stream >= 0) {
    FASTPSO_CHECK_MSG(single_stream_,
                      "replay-stream retarget requires a single-stream "
                      "graph");
  }
  session.replay_stream = stream;
}

void GraphExec::begin_replay(ReplaySession& session,
                             TimeBreakdown& breakdown, int stream_count) {
  FASTPSO_CHECK_MSG(!session.open, "nested graph replay on one session");
  const int bound =
      session.replay_stream >= 0 ? session.replay_stream : max_node_stream_;
  FASTPSO_CHECK_MSG(bound < stream_count,
                    "graph node stream does not exist on this device");
  resolve_session_slots(session, breakdown);
  session.cursor = 0;
  session.pending_matched = 0;
  session.diverged = false;
  session.open = true;
}

int GraphExec::match_kernel(ReplaySession& session, std::int64_t grid,
                            int block, int stream, PhaseId phase) {
  if (session.diverged) {
    return -1;
  }
  const std::size_t limit =
      std::min(nodes_.size(), session.cursor + kMatchWindow + 1);
  for (std::size_t j = session.cursor; j < limit; ++j) {
    const Node& n = nodes_[j].node;
    const int node_stream =
        session.replay_stream >= 0 ? session.replay_stream : n.stream;
    if (n.kind == NodeKind::kKernel && n.grid == grid && n.block == block &&
        node_stream == stream && n.phase == phase) {
      // Everything the caller consumes from the node (occupancies,
      // breakdown slot) is a pure function of these matched keys, so even a
      // positionally mis-paired match cannot change any accounted value.
      stats_.skipped_nodes += j - session.cursor;
      session.cursor = j + 1;
      ++session.pending_matched;
      ++stats_.replayed_launches;
      return static_cast<int>(j);
    }
  }
  session.diverged = true;
  stats_.diverged = true;
  return -1;
}

bool GraphExec::end_replay(ReplaySession& session) {
  FASTPSO_CHECK_MSG(session.open, "end_replay without begin_replay");
  session.open = false;
  stats_.skipped_nodes += nodes_.size() - session.cursor;
  if (session.diverged) {
    // A diverged iteration ran (partly) eagerly; in CUDA terms the graph
    // launch was abandoned, so no amortization credit.
    return false;
  }
  ++stats_.replays;
  stats_.modeled_seconds_saved +=
      static_cast<double>(session.pending_matched) *
          (launch_overhead_s_ - node_gap_s_) -
      graph_launch_s_;
  return true;
}

}  // namespace fastpso::vgpu::graph
