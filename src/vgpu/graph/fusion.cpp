#include "vgpu/graph/fusion.h"

#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.h"
#include "vgpu/san/sanitizer.h"

namespace fastpso::vgpu::graph {

namespace {

/// True when any node outside [first, last] may read storage overlapping
/// `written`. The captured graph replays in a loop, so a node *before* the
/// group reads this iteration's write on the next time around — every
/// outside node counts, not just later ones. Kernel nodes without a
/// declared footprint are opaque: they may read anything.
bool outside_reader(const std::vector<GraphExec::ExecNode>& nodes,
                    std::size_t first, std::size_t last,
                    const BufferUse& written) {
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    if (k >= first && k <= last) {
      continue;
    }
    const Node& n = nodes[k].node;
    if (n.kind != NodeKind::kKernel) {
      BufferUse src;
      src.base = n.src;
      src.bytes = n.bytes;
      if (written.overlaps(src)) {
        return true;
      }
      continue;
    }
    if (!n.has_uses) {
      return true;
    }
    for (const BufferUse& u : n.uses) {
      if (!u.write && u.overlaps(written)) {
        return true;
      }
    }
  }
  return false;
}

std::string member_label(const Node& node) {
  return node.label.empty() ? std::string("<unlabeled>") : node.label;
}

}  // namespace

bool FusionPass::fusible(const Node& node) {
  return node.kind == NodeKind::kKernel && node.elems > 0 && node.has_uses &&
         node.cost.barriers == 0;
}

bool FusionPass::compatible(const Node& a, const Node& b) {
  return a.elems == b.elems && a.grid == b.grid && a.block == b.block &&
         a.stream == b.stream &&
         a.cost.uses_tensor_cores == b.cost.uses_tensor_cores;
}

bool FusionPass::hazard(const Node& member, const Node& candidate) {
  for (const BufferUse& u : member.uses) {
    for (const BufferUse& v : candidate.uses) {
      if (!u.write && !v.write) {
        continue;  // shared reads never conflict
      }
      if (u.overlaps(v) && !u.aligned_with(v)) {
        return true;  // RAW / WAR / WAW across element slices
      }
    }
  }
  return false;
}

void FusionPass::run(GraphExec& exec, const GpuPerfModel& perf) {
  if (exec.fusion_stats_.applied) {
    return;
  }
  exec.fusion_perf_ = &perf;
  exec.fusion_stats_.applied = true;

  std::vector<GraphExec::ExecNode>& nodes = exec.nodes_;
  std::size_t i = 0;
  while (i < nodes.size()) {
    const Node& first = nodes[i].node;
    if (!fusible(first)) {
      ++i;
      continue;
    }
    // Grow a group greedily: a candidate joins only when it is fusible,
    // shape-compatible with the run, and hazard-free against every current
    // member. Any other node (memcpy, reduction, shape mismatch, hazard)
    // closes the group; the scan then restarts at that node so it can seed
    // the next group.
    std::vector<int> members = {static_cast<int>(i)};
    std::size_t j = i + 1;
    for (; j < nodes.size(); ++j) {
      const Node& cand = nodes[j].node;
      if (!fusible(cand) || !compatible(first, cand)) {
        break;
      }
      bool blocked = false;
      for (int m : members) {
        if (hazard(nodes[static_cast<std::size_t>(m)].node, cand)) {
          blocked = true;
          break;
        }
      }
      if (blocked) {
        break;
      }
      members.push_back(static_cast<int>(j));
    }
    if (members.size() < 2) {
      i = j;
      continue;
    }

    GraphExec::FusedGroup group;
    group.members = members;
    group.elems = first.elems;
    group.shape = nodes[i].shape;
    group.label = "fused:";
    const std::size_t last = static_cast<std::size_t>(members.back());
    for (std::size_t m = 0; m < members.size(); ++m) {
      const Node& node = nodes[static_cast<std::size_t>(members[m])].node;
      if (m > 0) {
        group.label += '+';
      }
      group.label += member_label(node);
      group.merged_cost += node.cost;
      group.static_member_seconds +=
          perf.kernel_seconds_resolved(group.shape, node.cost);
    }

    // Intermediate-traffic elision over aligned producer/consumer pairs.
    // The consumer's read is always elided (the value flows in registers
    // inside the fused element loop); the producer's write only when no
    // node outside the group — anywhere in the looped graph — reads that
    // storage. Fetched bytes are elided at the owning member's
    // amplification, mirroring how the member declared them.
    for (std::size_t p = 0; p < members.size(); ++p) {
      const Node& producer = nodes[static_cast<std::size_t>(members[p])].node;
      for (const BufferUse& w : producer.uses) {
        if (!w.write) {
          continue;
        }
        bool consumed = false;
        for (std::size_t c = p + 1; c < members.size(); ++c) {
          const Node& consumer =
              nodes[static_cast<std::size_t>(members[c])].node;
          for (const BufferUse& r : consumer.uses) {
            if (r.write || !w.aligned_with(r)) {
              continue;
            }
            consumed = true;
            group.elide_read_useful += r.bytes;
            group.elide_read_fetched +=
                r.bytes * consumer.cost.read_amplification;
          }
        }
        if (consumed && !outside_reader(nodes, static_cast<std::size_t>(
                                                   members.front()),
                                        last, w)) {
          group.elide_write_useful += w.bytes;
          group.elide_write_fetched +=
              w.bytes * producer.cost.write_amplification;
        }
      }
    }
    group.merged_cost.elide_traffic(
        group.elide_read_useful, group.elide_read_fetched,
        group.elide_write_useful, group.elide_write_fetched);
    group.static_fused_seconds =
        perf.kernel_seconds_resolved(group.shape, group.merged_cost);

    const int group_index = static_cast<int>(exec.fusion_groups_.size());
    for (int m : members) {
      nodes[static_cast<std::size_t>(m)].fuse_group = group_index;
    }
    exec.fusion_stats_.fused_members += static_cast<int>(members.size());
    exec.fusion_stats_.elided_read_bytes += group.elide_read_useful;
    exec.fusion_stats_.elided_write_bytes += group.elide_write_useful;
    exec.fusion_groups_.push_back(std::move(group));
    i = j;
  }
  exec.fusion_stats_.groups = static_cast<int>(exec.fusion_groups_.size());
}

void GraphExec::apply_fusion(const GpuPerfModel& perf) {
  FusionPass::run(*this, perf);
}

bool footprints_consistent(const Graph& graph, const san::Report& report,
                           std::string* diagnosis) {
  const auto fail = [&](std::string why) {
    if (diagnosis != nullptr) {
      *diagnosis = std::move(why);
    }
    return false;
  };
  std::vector<const Node*> kernels;
  for (const Node& node : graph.nodes()) {
    if (node.kind == NodeKind::kKernel) {
      kernels.push_back(&node);
    }
  }
  if (kernels.size() != report.launches.size()) {
    return fail("launch count mismatch: " +
                std::to_string(report.launches.size()) + " traced vs " +
                std::to_string(kernels.size()) + " captured kernel nodes");
  }
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const Node& node = *kernels[i];
    const san::LaunchTrace& trace = report.launches[i];
    if (node.grid != trace.grid || node.block != trace.block) {
      return fail("launch " + std::to_string(i) + " (" + trace.kernel +
                  ") shape mismatch vs captured node");
    }
    if (!node.has_uses) {
      continue;  // opaque nodes never fuse; nothing to validate
    }
    for (const san::BufferTouch& touch : trace.touched) {
      BufferUse span;
      span.base = touch.data;
      span.bytes = static_cast<double>(touch.count * touch.elem_bytes);
      const auto covered = [&](bool write) {
        for (const BufferUse& u : node.uses) {
          if (u.write == write && u.overlaps(span)) {
            return true;
          }
        }
        return false;
      };
      if (touch.unique_reads > 0 && !covered(false)) {
        return fail("launch " + std::to_string(i) + " (" + trace.kernel +
                    ") read buffer '" + touch.name +
                    "' outside its declared footprint");
      }
      if (touch.unique_writes > 0 && !covered(true)) {
        return fail("launch " + std::to_string(i) + " (" + trace.kernel +
                    ") wrote buffer '" + touch.name +
                    "' outside its declared footprint");
      }
    }
  }
  return true;
}

}  // namespace fastpso::vgpu::graph
