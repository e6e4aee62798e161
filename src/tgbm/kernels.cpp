#include "tgbm/kernels.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "vgpu/perf_model.h"

namespace fastpso::tgbm {
namespace {

/// Fixed setup cost every launched thread pays (index math, bounds checks).
constexpr double kThreadOverheadFlops = 24.0;
/// Per-thread descriptor traffic (node/feature metadata each thread loads
/// before its grid-stride loop). This is what makes items_per_thread a real
/// tradeoff: more items per thread amortize the descriptor, fewer threads
/// eventually lose occupancy.
constexpr double kThreadOverheadBytes = 8.0;
double clamp01(double x) { return std::clamp(x, 0.0, 0.999999); }

/// Index of `block_size` in kBlockChoices, or -1 if it is not a decodable
/// block size (hand-built configs).
int block_choice_index(int block_size) {
  for (std::size_t b = 0; b < kBlockChoices.size(); ++b) {
    if (kBlockChoices[b] == block_size) {
      return static_cast<int>(b);
    }
  }
  return -1;
}

KernelConfig decode_pair(double a, double b) {
  KernelConfig config;
  config.block_size =
      kBlockChoices[static_cast<std::size_t>(clamp01(a) * kBlockChoices.size())];
  config.items_per_thread =
      1 + static_cast<int>(clamp01(b) * kMaxItemsPerThread);
  return config;
}

template <typename T>
ConfigSet decode_position(std::span<const T> position) {
  FASTPSO_CHECK(!position.empty());
  ConfigSet configs;
  const std::size_t size = position.size();
  // The index pair (2k % size, (2k+1) % size) is periodic in k: period
  // size/2 for even sizes, size for odd ones. Decode one period and repeat
  // it — identical configs, and short positions (the d-sweeps) decode only
  // their few distinct pairs instead of all 25. ia tracks (2k) % size
  // incrementally; wrapping by subtraction avoids an integer divide per
  // component on this per-particle hot path.
  const std::size_t period = std::min<std::size_t>(
      size % 2 == 0 ? size / 2 : size, kNumKernels);
  std::size_t ia = 0;
  for (std::size_t k = 0; k < period; ++k) {
    std::size_t ib = ia + 1;
    if (ib >= size) {
      ib -= size;
    }
    configs[k] = decode_pair(static_cast<double>(position[ia]),
                             static_cast<double>(position[ib]));
    ia = ib + 1;
    if (ia >= size) {
      ia -= size;
    }
  }
  std::size_t src = 0;
  for (std::size_t k = period; k < kNumKernels; ++k) {
    configs[k] = configs[src];
    if (++src == period) {
      src = 0;
    }
  }
  return configs;
}

}  // namespace

std::array<KernelSite, kNumKernels> kernel_sites(const DatasetSpec& spec,
                                                 const GbmParams& params) {
  const double rows = static_cast<double>(spec.rows);
  const double dims = static_cast<double>(spec.dims);
  const double bins = params.bins;
  const double trees = params.trees;
  const double levels = params.depth;
  const double nodes_per_level = 8.0;  // average populated nodes
  // Per-row feature work: dense datasets touch every feature; the sparse
  // e2006-style shape is modeled through its nonzero density.
  const double nnz_per_row = std::min(dims, 4000.0);

  std::array<KernelSite, kNumKernels> sites;
  int k = 0;
  auto add = [&](std::string name, double launches, double items, double fpi,
                 double rbpi, double wbpi, double shpi = 0) {
    FASTPSO_CHECK(k < kNumKernels);
    sites[k++] = KernelSite{std::move(name), launches, items, fpi,
                            rbpi,            wbpi,     shpi};
  };

  // --- one-time data preparation ---------------------------------------
  add("find_cut_points", 1, dims * bins, 16, 64, 8);
  add("quantize_features", 1, rows * nnz_per_row / 64.0, 6 * 64, 4 * 64,
      1 * 64);
  add("build_csr_index", 1, rows, 8, 16, 8);
  add("colsample_mask", trees, dims, 4, 4, 1);
  add("row_sample_mask", trees, rows / 32.0, 5 * 32, 4, 4);

  // --- per boosting round ------------------------------------------------
  add("init_node_index", trees, rows, 2, 0, 4);
  add("update_gradients", trees, rows, 6, 12, 8);
  add("gradient_reduce", trees, rows, 2, 4, 0.1);

  // --- per tree level ------------------------------------------------------
  const double per_level = trees * levels;
  add("hist_build_root", trees, rows * nnz_per_row / 16.0, 3 * 16, 2 * 16, 1,
      /*shared=*/12.0);
  const double per_inner_level = trees * std::max(1.0, levels - 1.0);
  add("hist_build_node", per_inner_level, rows * nnz_per_row / 32.0, 3 * 32,
      2 * 32, 1, /*shared=*/12.0);
  add("hist_subtract", per_inner_level, nodes_per_level * dims * bins, 3, 16,
      8);
  add("best_split_gain", per_level, nodes_per_level * dims * bins, 12, 16, 2);
  add("best_split_reduce", per_level, nodes_per_level * dims, 4, 8, 0.5);
  add("split_broadcast", per_level, nodes_per_level, 8, 32, 32);
  add("partition_flags", per_level, rows, 5, 12, 1);
  add("partition_scan", per_level, rows / 8.0, 4 * 8, 4, 4);
  add("partition_scatter", per_level, rows, 3, 12, 8);
  add("node_index_update", per_level, rows, 3, 8, 4);
  add("node_stats_update", per_level, nodes_per_level * 2.0, 10, 32, 32);

  // --- per tree finalization -----------------------------------------------
  add("leaf_values", trees, 64, 8, 16, 8);
  add("update_predictions", trees, rows, 4, 12, 4);
  add("loss_eval", trees, rows / 4.0, 4 * 4, 4 * 4, 1);
  add("copy_tree_to_host", trees, 127, 2, 16, 16);
  add("tree_sync", trees, 1, 100, 0, 0);
  add("final_score", 1, rows, 6, 12, 4);
  FASTPSO_CHECK(k == kNumKernels);
  return sites;
}

LaunchPlan plan_launch(const KernelSite& site, const KernelConfig& config,
                       const vgpu::GpuSpec& spec) {
  LaunchPlan plan;
  const int block = std::min(config.block_size, spec.max_threads_per_block);
  const int ipt = std::max(1, config.items_per_thread);

  const double threads_wanted =
      std::max(1.0, std::ceil(site.work_items / ipt));
  std::int64_t grid = static_cast<std::int64_t>(
      std::ceil(threads_wanted / block));
  grid = std::clamp<std::int64_t>(grid, 1, 1 << 20);
  plan.config.block = block;
  plan.config.grid = grid;

  const double launched = static_cast<double>(plan.config.total_threads());
  // Tail quantization: idle threads still pay their setup overhead.
  const double overhead_flops = launched * kThreadOverheadFlops;
  // Blocks under two warps leave scheduler slots empty.
  const double block_eff =
      std::min(1.0, static_cast<double>(block) / (2.0 * spec.warp_size));

  plan.cost.flops =
      (site.work_items * site.flops_per_item + overhead_flops) / block_eff;
  plan.cost.dram_read_bytes = site.work_items * site.read_bytes_per_item +
                              launched * kThreadOverheadBytes;
  plan.cost.dram_write_bytes = site.work_items * site.write_bytes_per_item;

  if (site.shared_bytes_per_item > 0) {
    const double shared_per_block =
        site.shared_bytes_per_item * ipt * block;
    if (shared_per_block > static_cast<double>(spec.shared_mem_per_block)) {
      // Histogram no longer fits: privatized bins spill to global memory.
      plan.shared_spill = true;
      plan.cost.dram_read_bytes *= 2.0;
      plan.cost.dram_write_bytes *= 2.0;
    }
  }
  return plan;
}

ConfigSet default_configs() {
  ConfigSet configs;
  configs.fill(KernelConfig{.block_size = 256, .items_per_thread = 1});
  return configs;
}

ConfigSet configs_from_position(std::span<const float> position) {
  return decode_position(position);
}

ConfigSet configs_from_position(std::span<const double> position) {
  return decode_position(position);
}

TrainTimeModel::TrainTimeModel(const DatasetSpec& spec,
                               const GbmParams& params, vgpu::GpuSpec gpu)
    : model_(std::move(gpu)), sites_(kernel_sites(spec, params)) {
  for (int k = 0; k < kNumKernels; ++k) {
    for (std::size_t b = 0; b < kBlockChoices.size(); ++b) {
      for (int i = 0; i < kMaxItemsPerThread; ++i) {
        table_[k][b][i] = site_term(
            k, KernelConfig{.block_size = kBlockChoices[b],
                            .items_per_thread = i + 1});
      }
    }
  }
}

double TrainTimeModel::site_term(int k, const KernelConfig& config) const {
  const LaunchPlan plan = plan_launch(sites_[k], config, model_.spec());
  return sites_[k].launches *
         model_.kernel_seconds(
             static_cast<double>(plan.config.total_threads()), plan.cost);
}

double TrainTimeModel::seconds(const ConfigSet& configs) const {
  double total = 0.0;
  for (int k = 0; k < kNumKernels; ++k) {
    const KernelConfig& config = configs[k];
    const int b = block_choice_index(config.block_size);
    if (b >= 0 && config.items_per_thread >= 1 &&
        config.items_per_thread <= kMaxItemsPerThread) [[likely]] {
      total += table_[k][b][config.items_per_thread - 1];
    } else {
      total += site_term(k, config);
    }
  }
  return total;
}

double modeled_train_seconds(const DatasetSpec& spec, const GbmParams& params,
                             const ConfigSet& configs,
                             const vgpu::GpuSpec& gpu) {
  return TrainTimeModel(spec, params, gpu).seconds(configs);
}

}  // namespace fastpso::tgbm
