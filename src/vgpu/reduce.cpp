#include "vgpu/reduce.h"

#include <cmath>
#include <limits>
#include <vector>

#include "vgpu/block.h"
#include "vgpu/buffer.h"
#include "vgpu/prof/prof.h"
#include "vgpu/san/tracked.h"

namespace fastpso::vgpu {
namespace {

/// Tree width of the shared-memory reduction (a power of two) and the cap
/// on its partial grid, which keeps the partial array small.
constexpr int kReduceBlock = 256;
constexpr int kReduceMaxBlocks = 1024;

/// Launch shape for a reduction over n elements: one block per
/// kReduceBlock-element chunk, at most kReduceMaxBlocks blocks.
LaunchConfig reduce_config(const GpuSpec& spec, std::int64_t n) {
  return LaunchConfig::for_elements(spec, n, kReduceBlock, kReduceMaxBlocks);
}

/// Cost of one reduction pass over n elements of `elem_bytes` each,
/// emitting `out_bytes` of partial results. The flop count covers one
/// compare/accumulate per element plus the shared-memory tree
/// (block - 1 folds per block).
KernelCostSpec reduce_cost(std::int64_t n, std::size_t elem_bytes,
                           std::int64_t blocks, std::size_t out_bytes,
                           int barriers) {
  KernelCostSpec cost;
  cost.flops = static_cast<double>(n) +
               (barriers > 0
                    ? static_cast<double>(blocks) * (kReduceBlock - 1)
                    : 0.0);
  cost.dram_read_bytes = static_cast<double>(n) * elem_bytes;
  cost.dram_write_bytes = static_cast<double>(blocks) * out_bytes;
  cost.barriers = barriers;
  return cost;
}

int log2_ceil(int x) {
  int levels = 0;
  while ((1 << levels) < x) {
    ++levels;
  }
  return levels;
}

}  // namespace

ArgMin reduce_argmin(Device& device, const float* data, std::int64_t n) {
  FASTPSO_CHECK(n > 0);
  const auto cfg = reduce_config(device.spec(), n);
  const auto blocks = cfg.grid;

  if (use_fast_path()) {
    // Both passes are accounted exactly as on the block path; the result is
    // bitwise-identical because min is exact and every tie-break (legacy:
    // per-thread smallest index, tree prefers smaller index, NaN and the
    // all-infinity case never selected) reduces to "first strict minimum in
    // ascending index order".
    device.pack_flush_lane();  // host fold below reads `data` directly
    {
      prof::KernelLabel klabel("reduce/argmin_partial");
      device.account_launch(
          cfg, reduce_cost(n, sizeof(float), blocks,
                           sizeof(float) + sizeof(std::int64_t),
                           log2_ceil(kReduceBlock)));
    }
    ArgMin result;
    result.value = std::numeric_limits<float>::infinity();
    result.index = -1;
    for (std::int64_t i = 0; i < n; ++i) {
      if (data[i] < result.value) {
        result.value = data[i];
        result.index = i;
      }
    }
    LaunchConfig final_cfg;
    final_cfg.grid = 1;
    final_cfg.block = 1;
    {
      prof::KernelLabel klabel("reduce/argmin_final");
      device.account_launch(
          final_cfg,
          reduce_cost(blocks, sizeof(float) + sizeof(std::int64_t), blocks,
                      0, 0));
    }
    return result;
  }

  std::vector<float> partial_val(blocks);
  std::vector<std::int64_t> partial_idx(blocks);

  const auto in = san::track(data, static_cast<std::size_t>(n), "reduce_in");
  const auto p_val = san::track(partial_val.data(),
                                static_cast<std::size_t>(blocks),
                                "partial_val");
  const auto p_idx = san::track(partial_idx.data(),
                                static_cast<std::size_t>(blocks),
                                "partial_idx");
  san::expect_writes_exactly_once(p_val);
  san::expect_writes_exactly_once(p_idx);
  {
    san::KernelScope scope("reduce/argmin_partial");
    device.launch_blocks(
        cfg,
        reduce_cost(n, sizeof(float), blocks,
                    sizeof(float) + sizeof(std::int64_t),
                    log2_ceil(kReduceBlock)),
        [&](BlockCtx& blk) {
          auto sh_val = san::track_shared(
              blk.shared_array<float>(kReduceBlock), "sh_val");
          auto sh_idx = san::track_shared(
              blk.shared_array<std::int64_t>(kReduceBlock), "sh_idx");
          // Phase 1: each thread folds its grid-stride slice.
          blk.for_each_thread([&](const ThreadCtx& t) {
            float best = std::numeric_limits<float>::infinity();
            std::int64_t best_i = -1;
            for (std::int64_t i = t.global_id(); i < n;
                 i += t.grid_stride()) {
              san::count_flops(1.0);
              const float value = in[i];
              if (value < best || (value == best && i < best_i)) {
                best = value;
                best_i = i;
              }
            }
            sh_val[t.thread_idx] = best;
            sh_idx[t.thread_idx] = best_i;
          });
          // Phase 2..log2(block): shared-memory tree reduction.
          for (int stride = kReduceBlock / 2; stride > 0; stride /= 2) {
            blk.sync();
            blk.for_each_thread([&](const ThreadCtx& t) {
              if (t.thread_idx < stride) {
                san::count_flops(1.0);
                const int other = t.thread_idx + stride;
                const float other_val = sh_val[other];
                const float mine_val = sh_val[t.thread_idx];
                const std::int64_t other_idx = sh_idx[other];
                const std::int64_t mine_idx = sh_idx[t.thread_idx];
                const bool take =
                    other_val < mine_val ||
                    (other_val == mine_val && other_idx >= 0 &&
                     (mine_idx < 0 || other_idx < mine_idx));
                if (take) {
                  sh_val[t.thread_idx] = other_val;
                  sh_idx[t.thread_idx] = other_idx;
                }
              }
            });
          }
          p_val[blk.block_idx()] = sh_val[0];
          p_idx[blk.block_idx()] = sh_idx[0];
        });
  }

  // Final single-block pass over the partials.
  ArgMin result;
  result.value = std::numeric_limits<float>::infinity();
  result.index = -1;
  LaunchConfig final_cfg;
  final_cfg.grid = 1;
  final_cfg.block = 1;
  san::KernelScope scope("reduce/argmin_final");
  device.launch(final_cfg,
                reduce_cost(blocks, sizeof(float) + sizeof(std::int64_t),
                            blocks, 0, 0),
                [&](const ThreadCtx&) {
                  for (std::int64_t b = 0; b < blocks; ++b) {
                    san::count_flops(1.0);
                    const float value = p_val[b];
                    const std::int64_t index = p_idx[b];
                    if (value < result.value ||
                        (value == result.value && index >= 0 &&
                         (result.index < 0 || index < result.index))) {
                      result.value = value;
                      result.index = index;
                    }
                  }
                });
  return result;
}

float reduce_min(Device& device, const float* data, std::int64_t n) {
  return reduce_argmin(device, data, n).value;
}

double reduce_sum(Device& device, const float* data, std::int64_t n) {
  FASTPSO_CHECK(n > 0);
  const auto cfg = reduce_config(device.spec(), n);
  const auto blocks = cfg.grid;

  if (use_fast_path()) {
    // Double addition is not associative, so this path replays the exact
    // legacy fold order (per-thread grid-stride accumulation, then the
    // shared-memory tree, then a serial pass over the block partials) —
    // just without tracked views, hooks or ThreadCtx per virtual thread.
    device.pack_flush_lane();  // host fold below reads `data` directly
    {
      prof::KernelLabel klabel("reduce/sum_partial");
      device.account_launch(cfg,
                            reduce_cost(n, sizeof(float), blocks,
                                        sizeof(double),
                                        log2_ceil(kReduceBlock)));
    }
    const std::int64_t stride_all =
        blocks * static_cast<std::int64_t>(kReduceBlock);
    std::vector<double> sh(static_cast<std::size_t>(kReduceBlock));
    std::vector<double> partial(blocks, 0.0);
    for (std::int64_t b = 0; b < blocks; ++b) {
      for (int t = 0; t < kReduceBlock; ++t) {
        double acc = 0.0;
        for (std::int64_t i = b * kReduceBlock + t; i < n; i += stride_all) {
          acc += static_cast<double>(data[i]);
        }
        sh[t] = acc;
      }
      for (int stride = kReduceBlock / 2; stride > 0; stride /= 2) {
        for (int t = 0; t < stride; ++t) {
          sh[t] += sh[t + stride];
        }
      }
      partial[b] = sh[0];
    }
    LaunchConfig final_cfg;
    final_cfg.grid = 1;
    final_cfg.block = 1;
    {
      prof::KernelLabel klabel("reduce/sum_final");
      device.account_launch(
          final_cfg,
          reduce_cost(blocks, sizeof(double), blocks, 0, 0));
    }
    double total = 0.0;
    for (std::int64_t b = 0; b < blocks; ++b) {
      total += partial[b];
    }
    return total;
  }

  std::vector<double> partial(blocks, 0.0);

  const auto in = san::track(data, static_cast<std::size_t>(n), "reduce_in");
  const auto p_sum = san::track(partial.data(),
                                static_cast<std::size_t>(blocks),
                                "partial_sum");
  san::expect_writes_exactly_once(p_sum);
  {
    san::KernelScope scope("reduce/sum_partial");
    device.launch_blocks(
        cfg,
        reduce_cost(n, sizeof(float), blocks, sizeof(double),
                    log2_ceil(kReduceBlock)),
        [&](BlockCtx& blk) {
          auto sh = san::track_shared(
              blk.shared_array<double>(kReduceBlock), "sh_sum");
          blk.for_each_thread([&](const ThreadCtx& t) {
            double acc = 0.0;
            for (std::int64_t i = t.global_id(); i < n;
                 i += t.grid_stride()) {
              san::count_flops(1.0);
              acc += static_cast<double>(in[i]);
            }
            sh[t.thread_idx] = acc;
          });
          for (int stride = kReduceBlock / 2; stride > 0; stride /= 2) {
            blk.sync();
            blk.for_each_thread([&](const ThreadCtx& t) {
              if (t.thread_idx < stride) {
                san::count_flops(1.0);
                sh[t.thread_idx] += sh[t.thread_idx + stride];
              }
            });
          }
          p_sum[blk.block_idx()] = sh[0];
        });
  }

  double total = 0.0;
  LaunchConfig final_cfg;
  final_cfg.grid = 1;
  final_cfg.block = 1;
  san::KernelScope scope("reduce/sum_final");
  device.launch(final_cfg,
                reduce_cost(blocks, sizeof(double), blocks, 0, 0),
                [&](const ThreadCtx&) {
                  for (std::int64_t b = 0; b < blocks; ++b) {
                    san::count_flops(1.0);
                    total += p_sum[b];
                  }
                });
  return total;
}

}  // namespace fastpso::vgpu
