// The tunable kernel families of the Table 5 case study (DESIGN.md §13).
//
// A KernelFamily bundles everything the tuner needs to search one kernel's
// configuration space for one workload shape:
//   * its JoinedSpace (axes + validity predicates) and default point;
//   * predicted_us — the modeled-cost oracle: the site's launches planned
//     by tgbm::plan_launch under a point and priced with
//     vgpu::GpuPerfModel;
//   * entries — the store keys a point pins for a shape's bucket
//     ("tgbm/<site>/b<bucket>/block" and "/items");
//   * executed_us — the modeled time of a whole training run with the
//     entries applied through site_configs, validating a per-site
//     prediction against the full plan the trainer prices.
//
// There is one "tgbm/<site>" family per MiniGBM kernel site. site_configs
// turns the store a search emits back into the ConfigSet the trainer
// takes.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "tgbm/dataset.h"
#include "tgbm/kernels.h"
#include "tune/shapes.h"
#include "tune/space.h"
#include "vgpu/device_spec.h"

namespace fastpso::tune {

/// Store entries one configuration point pins for one shape's bucket.
using StoreEntries = std::map<std::string, int>;

struct KernelFamily {
  std::string name;  ///< family label == WorkloadShape::kernel
  JoinedSpace space;
  Point default_point;
  /// Modeled cost (microseconds) of the family's launches over `shape`
  /// under `point`. Pure function of (point, shape).
  std::function<double(const Point&, const WorkloadShape&)> predicted_us;
  /// Store entries `point` pins for `shape`'s bucket.
  std::function<StoreEntries(const Point&, const WorkloadShape&)> entries;
  /// Executed probe: modeled microseconds with `entries` applied (empty =
  /// default configuration). Null when the family has no executed form.
  std::function<double(const StoreEntries&, const WorkloadShape&)>
      executed_us;

  /// "axis=value;axis=value" rendering of a point (table provenance).
  [[nodiscard]] std::string point_string(const Point& point) const;
};

/// One family per MiniGBM kernel site for (spec, params) on `gpu`, named
/// "tgbm/<site>"; includes the shared-memory fit predicate for
/// histogram-class sites so no spilling configuration is ever emitted.
std::vector<KernelFamily> tgbm_site_families(const tgbm::DatasetSpec& spec,
                                             const tgbm::GbmParams& params,
                                             const vgpu::GpuSpec& gpu);

/// Workload shapes matching tgbm_site_families (one per site, elements =
/// the site's per-launch work items).
std::vector<WorkloadShape> tgbm_site_shapes(const tgbm::DatasetSpec& spec,
                                            const tgbm::GbmParams& params);

/// default_configs() with the per-site entries of `store` applied (keys
/// shape_key("tgbm/<site>", work items) + "/block" and "/items"). A block
/// size outside tgbm::kBlockChoices keeps the default, so the trainer's
/// table fast path still covers the result; items clamp to
/// [1, tgbm::kMaxItemsPerThread]. An empty store gives default_configs().
tgbm::ConfigSet site_configs(const tgbm::DatasetSpec& spec,
                             const tgbm::GbmParams& params,
                             const StoreEntries& store);

/// Family with the given name, or nullptr.
const KernelFamily* find_family(const std::vector<KernelFamily>& families,
                                std::string_view name);

}  // namespace fastpso::tune
