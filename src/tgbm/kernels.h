// The 25 tunable GPU kernels of MiniGBM (the ThunderGBM substitute) and
// their launch-configuration cost model.
//
// The paper's case study (Section 4.6, Table 5) uses FastPSO to choose the
// thread/block configuration of ThunderGBM's 25 GPU kernel functions; each
// kernel contributes two tunables (block size, items per thread), giving
// the 50-dimensional ThreadConf search space. MiniGBM mirrors this: a
// histogram-GBDT trainer whose kernels all launch through the plan computed
// here. The plan is the single source of truth for both
//   * the analytic objective `modeled_train_seconds` that PSO optimizes, and
//   * the real trainer's launches (tgbm/minigbm.h),
// so tuned configurations transfer between the two by construction.
//
// Configuration effects modeled (all mechanistic, none problem-specific):
//   * occupancy: too few threads (large items_per_thread) under-fill the
//     device (GpuPerfModel's occupancy terms);
//   * per-thread overhead: every launched thread pays fixed setup FLOPs, so
//     over-threading large kernels wastes compute;
//   * block efficiency: blocks under 2 warps schedule poorly;
//   * tail quantization: grid rounding launches idle threads;
//   * shared-memory fit: histogram-class kernels need shared bytes
//     proportional to block_size * items_per_thread; exceeding the per-block
//     budget spills to global memory (2x traffic).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tgbm/dataset.h"
#include "vgpu/device.h"
#include "vgpu/perf_model.h"

namespace fastpso::tgbm {

/// Number of tunable GPU kernels (matches ThunderGBM's 25 in the paper).
inline constexpr int kNumKernels = 25;
/// Two tunables per kernel -> the paper's 50-dimensional ThreadConf space.
inline constexpr int kConfigDims = kNumKernels * 2;

/// GBDT training hyper-parameters (paper: 40 trees, depth 6).
struct GbmParams {
  int trees = 40;
  int depth = 6;
  float learning_rate = 0.1f;
  int bins = 64;
  std::uint64_t seed = 1;
};

/// Allowed block sizes (powers of two up to the device limit) and the
/// items-per-thread range the position decode can produce. These bound the
/// whole configuration space per kernel (6 x 16 points), which is what makes
/// TrainTimeModel's precomputed score table possible.
inline constexpr std::array<int, 6> kBlockChoices = {32, 64, 128, 256, 512,
                                                     1024};
inline constexpr int kMaxItemsPerThread = 16;

/// One kernel's launch configuration.
struct KernelConfig {
  int block_size = 256;
  int items_per_thread = 1;
};

using ConfigSet = std::array<KernelConfig, kNumKernels>;

/// Static description of one kernel site: how often it launches during a
/// full training run and what one work item costs.
struct KernelSite {
  std::string name;
  double launches = 1;         ///< per training run
  double work_items = 1;       ///< per launch
  double flops_per_item = 1;
  double read_bytes_per_item = 4;
  double write_bytes_per_item = 4;
  /// Shared bytes needed per (thread x item); > 0 marks histogram-class
  /// kernels subject to the shared-memory fit constraint.
  double shared_bytes_per_item = 0;
};

/// The 25 sites with launch counts / work shapes derived from the dataset's
/// DECLARED (full) scale and the training parameters.
std::array<KernelSite, kNumKernels> kernel_sites(const DatasetSpec& spec,
                                                 const GbmParams& params);

/// Resolved launch plan for one site under one configuration.
struct LaunchPlan {
  vgpu::LaunchConfig config;
  vgpu::KernelCostSpec cost;  ///< per single launch
  bool shared_spill = false;  ///< histogram did not fit in shared memory
};

/// Computes the launch plan (shape + modeled cost incl. penalties).
LaunchPlan plan_launch(const KernelSite& site, const KernelConfig& config,
                       const vgpu::GpuSpec& spec);

/// ThunderGBM-style defaults: 256-thread blocks, one item per thread.
ConfigSet default_configs();

/// Decodes a PSO position (values nominally in [0,1], clamped) into a
/// ConfigSet. Positions shorter/longer than kConfigDims wrap cyclically, so
/// the ThreadConf objective is well-defined for any dimension.
ConfigSet configs_from_position(std::span<const float> position);
ConfigSet configs_from_position(std::span<const double> position);

/// Modeled wall time of one full training run under `configs` — the
/// analytic function FastPSO optimizes in the case study.
double modeled_train_seconds(const DatasetSpec& spec, const GbmParams& params,
                             const ConfigSet& configs,
                             const vgpu::GpuSpec& gpu);

/// Precomputed evaluation state for modeled_train_seconds. The 25 sites and
/// the GPU model depend only on (dataset, params, gpu), not on the configs
/// being scored, yet deriving them per call costs ~50 heap allocations
/// (site names, the spec copy inside GpuPerfModel). Better: because each
/// kernel's configuration space is just kBlockChoices x kMaxItemsPerThread
/// points, construction evaluates every site's time contribution for every
/// reachable configuration up front; seconds() then sums 25 table lookups.
/// Hot callers — the ThreadConf objective scores one position per particle
/// per iteration — build one of these once and call seconds() per position.
/// Each table entry is produced by the identical arithmetic, in the identical
/// order, as modeled_train_seconds, so results are bit-for-bit the same.
class TrainTimeModel {
 public:
  TrainTimeModel(const DatasetSpec& spec, const GbmParams& params,
                 vgpu::GpuSpec gpu);

  /// Modeled training seconds under `configs` (== modeled_train_seconds).
  [[nodiscard]] double seconds(const ConfigSet& configs) const;

 private:
  /// One site's contribution: launches * kernel_seconds(plan(site, config)).
  [[nodiscard]] double site_term(int k, const KernelConfig& config) const;

  vgpu::GpuPerfModel model_;
  std::array<KernelSite, kNumKernels> sites_;
  /// table_[k][b][i] = site_term(k, {kBlockChoices[b], i + 1}). Configs
  /// outside the decode space (hand-built KernelConfigs) fall back to
  /// site_term directly.
  std::array<std::array<std::array<double, kMaxItemsPerThread>,
                        kBlockChoices.size()>,
             kNumKernels>
      table_{};
};

}  // namespace fastpso::tgbm
