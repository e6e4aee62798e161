#include "tune/kernels.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "vgpu/perf_model.h"

namespace fastpso::tune {
namespace {

/// Modeled microseconds of one training run under the site configs
/// `entries` pin, priced through the exact plan_launch path the trainer
/// uses.
double probe_tgbm(const tgbm::DatasetSpec& spec,
                  const tgbm::GbmParams& params, const vgpu::GpuSpec& gpu,
                  const StoreEntries& entries) {
  const tgbm::ConfigSet configs = site_configs(spec, params, entries);
  return tgbm::modeled_train_seconds(spec, params, configs, gpu) * 1e6;
}

}  // namespace

std::string KernelFamily::point_string(const Point& point) const {
  std::string out;
  const auto& axes = space.axes();
  for (std::size_t i = 0; i < axes.size() && i < point.size(); ++i) {
    // ';' separator keeps the rendering a single CSV field.
    if (!out.empty()) {
      out += ";";
    }
    out += axes[i].name + "=" + std::to_string(point[i]);
  }
  return out;
}

std::vector<KernelFamily> tgbm_site_families(const tgbm::DatasetSpec& spec,
                                             const tgbm::GbmParams& params,
                                             const vgpu::GpuSpec& gpu) {
  auto model = std::make_shared<vgpu::GpuPerfModel>(gpu);
  const auto sites = std::make_shared<
      const std::array<tgbm::KernelSite, tgbm::kNumKernels>>(
      tgbm::kernel_sites(spec, params));

  std::vector<int> items(tgbm::kMaxItemsPerThread);
  for (int i = 0; i < tgbm::kMaxItemsPerThread; ++i) {
    items[i] = i + 1;
  }

  std::vector<KernelFamily> families;
  for (int k = 0; k < tgbm::kNumKernels; ++k) {
    const tgbm::KernelSite& site = (*sites)[k];
    KernelFamily family;
    family.name = "tgbm/" + site.name;
    family.space
        .add_axis("block", {tgbm::kBlockChoices.begin(),
                            tgbm::kBlockChoices.end()})
        .add_axis("items", items)
        .add_predicate("block/device_limit",
                       [limit = gpu.max_threads_per_block](const Point& p) {
                         return p[0] <= limit;
                       });
    if (site.shared_bytes_per_item > 0) {
      family.space.add_predicate(
          "shared_fit",
          [per_item = site.shared_bytes_per_item,
           shared = gpu.shared_mem_per_block](const Point& p) {
            // The tuner never emits a spilling histogram configuration
            // (tgbm/kernels.cpp plan_launch's 2x-traffic penalty).
            return per_item * p[1] * p[0] <=
                   static_cast<double>(shared);
          });
    }
    family.default_point = {256, 1};
    family.predicted_us = [model, sites, k](const Point& p,
                                            const WorkloadShape&) {
      const tgbm::KernelConfig config{.block_size = p[0],
                                      .items_per_thread = p[1]};
      const tgbm::LaunchPlan plan =
          tgbm::plan_launch((*sites)[k], config, model->spec());
      return (*sites)[k].launches *
             model->kernel_seconds(
                 static_cast<double>(plan.config.total_threads()),
                 plan.cost) *
             1e6;
    };
    family.entries = [name = family.name](const Point& p,
                                          const WorkloadShape& shape) {
      const std::string prefix = shape_key(name, shape.elements);
      return StoreEntries{{prefix + "/block", p[0]},
                          {prefix + "/items", p[1]}};
    };
    family.executed_us = [spec, params, gpu](const StoreEntries& entries,
                                             const WorkloadShape&) {
      return probe_tgbm(spec, params, gpu, entries);
    };
    families.push_back(std::move(family));
  }
  return families;
}

std::vector<WorkloadShape> tgbm_site_shapes(const tgbm::DatasetSpec& spec,
                                            const tgbm::GbmParams& params) {
  const auto sites = tgbm::kernel_sites(spec, params);
  std::vector<WorkloadShape> shapes;
  shapes.reserve(sites.size());
  const int swarm = static_cast<int>(
      std::min<std::int64_t>(spec.rows, std::numeric_limits<int>::max()));
  for (const tgbm::KernelSite& site : sites) {
    shapes.push_back({"tgbm/" + site.name,
                      static_cast<std::int64_t>(site.work_items), spec.dims,
                      swarm});
  }
  return shapes;
}

tgbm::ConfigSet site_configs(const tgbm::DatasetSpec& spec,
                             const tgbm::GbmParams& params,
                             const StoreEntries& store) {
  tgbm::ConfigSet configs = tgbm::default_configs();
  const auto sites = tgbm::kernel_sites(spec, params);
  for (int k = 0; k < tgbm::kNumKernels; ++k) {
    const std::string prefix =
        shape_key("tgbm/" + sites[k].name,
                  static_cast<std::int64_t>(sites[k].work_items));
    if (const auto it = store.find(prefix + "/block");
        it != store.end() &&
        std::find(tgbm::kBlockChoices.begin(), tgbm::kBlockChoices.end(),
                  it->second) != tgbm::kBlockChoices.end()) {
      configs[k].block_size = it->second;
    }
    if (const auto it = store.find(prefix + "/items"); it != store.end()) {
      configs[k].items_per_thread =
          std::clamp(it->second, 1, tgbm::kMaxItemsPerThread);
    }
  }
  return configs;
}

const KernelFamily* find_family(const std::vector<KernelFamily>& families,
                                std::string_view name) {
  for (const KernelFamily& family : families) {
    if (family.name == name) {
      return &family;
    }
  }
  return nullptr;
}

}  // namespace fastpso::tune
