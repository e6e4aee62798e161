#include "serve/packed.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "common/check.h"
#include "vgpu/device.h"

namespace fastpso::serve {

bool pack_enabled_from_env() {
  const char* env = std::getenv("FASTPSO_SERVE_PACK");
  return env != nullptr && env[0] == '1' && env[1] == '\0';
}

void CohortQueue::begin_round(vgpu::Device& device,
                              const vgpu::graph::GraphExec& exec,
                              int lanes) {
  FASTPSO_CHECK_MSG(exec_ == nullptr, "cohort round already open");
  FASTPSO_CHECK_MSG(lanes >= 1, "cohort needs at least one lane");
  device_ = &device;
  exec_ = &exec;
  // Shrink-free reset: lane capacity survives across rounds so the steady
  // state defers without allocating.
  if (lanes_.size() < static_cast<std::size_t>(lanes)) {
    lanes_.resize(static_cast<std::size_t>(lanes));
  }
  for (std::size_t lane = 0; lane < static_cast<std::size_t>(lanes); ++lane) {
    lanes_[lane].clear();
  }
  lane_streams_.assign(static_cast<std::size_t>(lanes), 0);
  current_ = -1;
}

bool CohortQueue::offer(int node_index, std::int64_t n_elems,
                        const vgpu::KernelCostSpec& cost, double seconds,
                        const vgpu::PackSpan& span) {
  if (current_ < 0 || exec_ == nullptr) {
    return false;  // no lane installed: run inline, exactly as unpacked
  }
  std::vector<Entry>& lane = lanes_[static_cast<std::size_t>(current_)];
  Entry& entry = lane.emplace_back();
  entry.node_index = node_index;
  entry.stream = lane_streams_[static_cast<std::size_t>(current_)];
  entry.n_elems = n_elems;
  entry.cost = cost;
  entry.seconds = seconds;
  entry.span = span;
  ++round_.deferred;
  return true;
}

void CohortQueue::flush_lane() {
  if (current_ < 0) {
    // Scheduler-context device work (admission allocs, finalize downloads)
    // never touches a mid-round job's pending spans: the scheduler drains
    // every lane with a flush_barrier before leaving the cohort.
    return;
  }
  std::vector<Entry>& lane = lanes_[static_cast<std::size_t>(current_)];
  for (const Entry& entry : lane) {
    // The retracted stream time settles back at the original solo price:
    // this span runs unpacked after all.
    device_->pack_restore_stream_seconds(entry.stream, entry.seconds);
    entry.span(0, entry.n_elems);
    ++round_.inline_spans;
  }
  lane.clear();
}

void CohortQueue::flush_barrier(vgpu::Device& device) {
  FASTPSO_CHECK_MSG(exec_ != nullptr, "flush_barrier outside a round");
  // Merge lanes by node index: each lane's entries are in replay-cursor
  // (program) order, so repeatedly dispatching the smallest pending node
  // index across lanes preserves per-job ordering while packing every job
  // that reached the same node.
  merge_pos_.assign(lanes_.size(), 0);
  for (;;) {
    int next_node = std::numeric_limits<int>::max();
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
      if (merge_pos_[lane] < lanes_[lane].size()) {
        next_node = std::min(next_node,
                             lanes_[lane][merge_pos_[lane]].node_index);
      }
    }
    if (next_node == std::numeric_limits<int>::max()) {
      break;  // every lane drained
    }
    merge_members_.clear();
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
      if (merge_pos_[lane] < lanes_[lane].size() &&
          lanes_[lane][merge_pos_[lane]].node_index == next_node) {
        merge_members_.push_back(&lanes_[lane][merge_pos_[lane]]);
        ++merge_pos_[lane];
      }
    }
    // Chunk oversized cohorts: each chunk is one packed dispatch.
    constexpr std::size_t chunk = kMaxCohort;
    for (std::size_t begin = 0; begin < merge_members_.size();
         begin += chunk) {
      const std::size_t end =
          std::min(begin + chunk, merge_members_.size());
      dispatch_group(device, next_node, merge_members_.data() + begin,
                     static_cast<int>(end - begin));
    }
  }
  for (std::vector<Entry>& lane : lanes_) {
    lane.clear();
  }
}

void CohortQueue::dispatch_group(vgpu::Device& device, int node_index,
                                 const Entry* const* members, int k) {
  const auto& en =
      exec_->nodes()[static_cast<std::size_t>(node_index)];
  const std::int64_t grid = en.node.grid;
  const int block = en.node.block;
  const char* label = en.node.label.empty() ? phase_name(en.node.phase).c_str()
                                            : en.node.label.c_str();

  // Warp-per-job sub-packing decision: per-job thread utilization below
  // the threshold (and a warp-aligned block) means block-per-job packing
  // would keep mostly-idle blocks resident; pack several jobs into one
  // block instead, each owning ceil(n/32) warps.
  const std::int64_t n = members[0]->n_elems;
  const double per_job_threads = static_cast<double>(grid) * block;
  const bool warp_mode =
      k >= 2 && block % 32 == 0 && per_job_threads > 0 &&
      static_cast<double>(n) <
          kWarpThreshold * per_job_threads &&
      (n + 31) / 32 <= block / 32;

  vgpu::LaunchConfig cfg;
  std::int64_t jobs_per_block = 1;
  if (warp_mode) {
    const std::int64_t warps_per_job = std::max<std::int64_t>((n + 31) / 32, 1);
    jobs_per_block = std::max<std::int64_t>((block / 32) / warps_per_job, 1);
    cfg.grid = (k + jobs_per_block - 1) / jobs_per_block;
    cfg.block = block;
  } else {
    // Block-per-job: every member contributes its own per-job grid. k == 1
    // degenerates to the exact solo geometry.
    cfg.grid = grid * k;
    cfg.block = block;
  }

  // Executed packing credit: the members' live-accounted seconds versus
  // one launch of the summed work at the packed geometry — the same
  // GpuPerfModel entry points the priced model (serve/batcher.h) compares.
  double merged_seconds = 0;
  double saved = 0;
  {
    vgpu::KernelCostSpec summed;
    double member_seconds = 0;
    for (int m = 0; m < k; ++m) {
      const Entry* entry = members[m];
      summed.flops += entry->cost.flops;
      summed.transcendentals += entry->cost.transcendentals;
      summed.dram_read_bytes += entry->cost.dram_read_bytes;
      summed.dram_write_bytes += entry->cost.dram_write_bytes;
      member_seconds += entry->seconds;
    }
    merged_seconds = perf_.kernel_seconds(cfg.grid * cfg.block, summed);
    if (k >= 2) {
      saved = std::max(member_seconds - merged_seconds, 0.0);
    }
  }

  // Per-block job-index indirection table: packed block -> member job.
  // Block mode lays each member's per-job blocks out contiguously; warp
  // mode stores the block's first member (its block-mates follow densely).
  block_job_.clear();
  block_job_.reserve(static_cast<std::size_t>(cfg.grid));
  if (warp_mode) {
    for (std::int64_t b = 0; b < cfg.grid; ++b) {
      block_job_.push_back(static_cast<int>(b * jobs_per_block));
    }
  } else {
    for (int m = 0; m < k; ++m) {
      for (std::int64_t b = 0; b < grid; ++b) {
        block_job_.push_back(m);
      }
    }
  }

  device.packed_dispatch(label, cfg, k, merged_seconds, [&] {
    if (warp_mode) {
      for (std::int64_t b = 0; b < cfg.grid; ++b) {
        for (std::int64_t slot = 0; slot < jobs_per_block; ++slot) {
          const std::int64_t m =
              block_job_[static_cast<std::size_t>(b)] + slot;
          if (m >= k) {
            break;
          }
          const Entry* entry = members[m];
          entry->span(0, entry->n_elems);
        }
      }
      return;
    }
    // Block mode: each packed block runs its member's contiguous element
    // chunk (the per-job grid split a solo launch would stride over).
    const std::int64_t per_block = (n + grid - 1) / grid;
    for (std::int64_t pb = 0; pb < cfg.grid; ++pb) {
      const int m = block_job_[static_cast<std::size_t>(pb)];
      const Entry* entry = members[m];
      const std::int64_t local = pb % grid;
      const std::int64_t begin = local * per_block;
      const std::int64_t end = std::min(begin + per_block, entry->n_elems);
      if (begin < end) {
        entry->span(begin, end);
      }
    }
  });

  // Settle the members' retracted stream time: every member stream waits
  // for the packed launch, which runs once at the merged price. This is
  // where the executed saving lands on the shared timeline.
  commit_streams_.clear();
  for (int m = 0; m < k; ++m) {
    const int stream = members[m]->stream;
    if (std::find(commit_streams_.begin(), commit_streams_.end(), stream) ==
        commit_streams_.end()) {
      commit_streams_.push_back(stream);
    }
  }
  device.pack_commit_dispatch(commit_streams_.data(),
                              static_cast<int>(commit_streams_.size()),
                              merged_seconds);

  ++round_.dispatches;
  if (warp_mode) {
    ++round_.warp_dispatches;
  }
  round_.executed_saved_seconds += saved;
}

PackRoundStats CohortQueue::take_round() {
  FASTPSO_CHECK_MSG(exec_ != nullptr, "take_round outside a round");
  for (const std::vector<Entry>& lane : lanes_) {
    FASTPSO_CHECK_MSG(lane.empty(), "cohort lane not drained");
  }
  exec_ = nullptr;
  current_ = -1;
  const PackRoundStats stats = round_;
  round_ = {};
  return stats;
}

}  // namespace fastpso::serve
