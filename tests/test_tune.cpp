// Tests for the offline autotuner (src/tune, DESIGN.md §13): validity
// predicates, shape grouping, the predicted-vs-executed CSV, and
// site_configs, which turns a tuner's store into MiniGBM kernel configs.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "tgbm/dataset.h"
#include "tgbm/kernels.h"
#include "tune/kernels.h"
#include "tune/shapes.h"
#include "tune/space.h"
#include "tune/table.h"
#include "tune/tuner.h"
#include "vgpu/device_spec.h"

namespace fastpso {
namespace {

using tune::JoinedSpace;
using tune::Point;
using tune::WorkloadShape;

std::vector<tune::KernelFamily> covtype_families() {
  return tune::tgbm_site_families(tgbm::covtype_spec(), tgbm::GbmParams{},
                                  vgpu::tesla_v100());
}

/// The kernel-site shapes of every Table 5 dataset: the same 25 site
/// names at different element counts, so some shapes share a group.
std::vector<WorkloadShape> table5_site_shapes() {
  std::vector<WorkloadShape> shapes;
  for (const tgbm::DatasetSpec& spec : tgbm::table5_specs()) {
    for (WorkloadShape& shape :
         tune::tgbm_site_shapes(spec, tgbm::GbmParams{})) {
      shapes.push_back(std::move(shape));
    }
  }
  return shapes;
}

// ---------------------------------------------------------------------------
// JoinedSpace / validity predicates

TEST(TuneSpace, EnumerateNeverViolatesPredicates) {
  for (const tune::KernelFamily& family : covtype_families()) {
    const std::vector<Point> valid = family.space.enumerate_valid();
    EXPECT_FALSE(valid.empty()) << family.name;
    for (const Point& point : valid) {
      EXPECT_TRUE(family.space.valid(point))
          << family.name << ": " << family.point_string(point);
      EXPECT_TRUE(family.space.first_violation(point).empty());
    }
    // The default configuration must itself be a valid member.
    EXPECT_TRUE(family.space.valid(family.default_point))
        << family.name << " default "
        << family.point_string(family.default_point);
  }
}

TEST(TuneSpace, TgbmFamiliesNeverAdmitSharedSpill) {
  // The histogram-class sites carry a shared-memory fit predicate; no
  // enumerated point may spill (tgbm::kernels rejects such configs at
  // launch planning, so an emitted one would silently fall back).
  const tgbm::GbmParams params;
  const auto spec = tgbm::covtype_spec();
  const auto sites = tgbm::kernel_sites(spec, params);
  const vgpu::GpuSpec gpu = vgpu::tesla_v100();
  for (const tune::KernelFamily& family :
       tune::tgbm_site_families(spec, params, gpu)) {
    for (const Point& point : family.space.enumerate_valid()) {
      const std::string site_name =
          family.name.substr(std::string("tgbm/").size());
      for (const auto& site : sites) {
        if (site.name != site_name || site.shared_bytes_per_item <= 0) {
          continue;
        }
        // point = {block, items_per_thread}; plan_launch spills when
        // per_item * items * block exceeds the device's shared memory.
        EXPECT_LE(site.shared_bytes_per_item * point[1] * point[0],
                  static_cast<double>(gpu.shared_mem_per_block))
            << family.name;
      }
    }
  }
}

TEST(TuneSpace, DecodeClampsAndNeighborsStayValid) {
  for (const tune::KernelFamily& family : covtype_families()) {
    // Out-of-range coordinates clamp into the axis domains.
    const std::vector<float> lo(8, -3.0f);
    const std::vector<float> hi(8, 7.5f);
    for (const auto& x : {lo, hi}) {
      const Point point = family.space.decode(
          std::span<const float>(x.data(), x.size()));
      ASSERT_EQ(point.size(),
                static_cast<std::size_t>(family.space.axis_count()));
      // Decoded coordinates are literal axis values drawn from the domain.
      for (std::size_t i = 0; i < point.size(); ++i) {
        const auto& values = family.space.axes()[i].values;
        EXPECT_NE(std::find(values.begin(), values.end(), point[i]),
                  values.end())
            << family.name << " axis " << family.space.axes()[i].name;
      }
    }
    for (const Point& neighbor :
         family.space.neighbors(family.default_point)) {
      EXPECT_TRUE(family.space.valid(neighbor)) << family.name;
    }
  }
}

TEST(TuneTuner, NeverEmitsInvalidConfiguration) {
  tune::TunerOptions options;
  options.particles = 12;
  options.iterations = 6;
  const tune::Tuner tuner(vgpu::tesla_v100(), options);
  const auto families = covtype_families();
  const tune::TuneReport report = tuner.tune(
      families,
      tune::tgbm_site_shapes(tgbm::covtype_spec(), tgbm::GbmParams{}));
  EXPECT_EQ(report.outcomes.size(), families.size());
  for (const tune::GroupOutcome& outcome : report.outcomes) {
    // "tgbm/<site>/b<bucket>": the family is the key minus its bucket.
    const std::string kernel = outcome.key.substr(0, outcome.key.rfind('/'));
    const tune::KernelFamily* family = tune::find_family(families, kernel);
    ASSERT_NE(family, nullptr) << outcome.key;
    EXPECT_TRUE(family->space.valid(outcome.tuned_point)) << outcome.key;
    // The default is always in the candidate slate, so tuned can never be
    // predicted (or executed) slower.
    EXPECT_LE(outcome.tuned_us, outcome.default_us) << outcome.key;
    EXPECT_LE(outcome.executed_tuned_us, outcome.executed_default_us)
        << outcome.key;
  }
}

// ---------------------------------------------------------------------------
// Shape grouping

TEST(TuneShapes, GroupingIsOrderIndependent) {
  std::vector<WorkloadShape> shapes = table5_site_shapes();
  // Duplicates must collapse, order must not matter.
  shapes.push_back(shapes.front());
  std::vector<WorkloadShape> shuffled = shapes;
  std::mt19937 rng(7);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);

  const auto a = tune::group_shapes(shapes);
  const auto b = tune::group_shapes(shuffled);
  ASSERT_EQ(a.size(), b.size());
  // Four datasets' shapes collapse into fewer groups than shapes.
  EXPECT_LT(a.size(), shapes.size() - 1);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key(), b[i].key());
    EXPECT_EQ(a[i].representative, b[i].representative);
    EXPECT_EQ(a[i].shapes, b[i].shapes);
  }
}

TEST(TuneShapes, GroupKeyMatchesStorePrefix) {
  for (const tune::ShapeGroup& group :
       tune::group_shapes(table5_site_shapes())) {
    EXPECT_EQ(group.key(), tune::shape_key(group.kernel,
                                           group.representative.elements));
    for (const WorkloadShape& shape : group.shapes) {
      EXPECT_EQ(tune::elements_bucket(shape.elements), group.bucket);
    }
  }
  EXPECT_EQ(tune::elements_bucket(0), 0);
  EXPECT_EQ(tune::elements_bucket(1), 0);
  EXPECT_EQ(tune::elements_bucket(1023), 9);
  EXPECT_EQ(tune::elements_bucket(1024), 10);
  EXPECT_EQ(tune::shape_key("tgbm/tree_sync", 5000), "tgbm/tree_sync/b12");
}

// ---------------------------------------------------------------------------
// Table CSV

TEST(TuneTable, CsvMatchesLiteral) {
  tune::TunedTable table;
  tune::GroupResult group;
  group.key = "tgbm/gradient_reduce/b19";
  group.point = "block=32;items=8";
  group.default_us = 10.440931054046635;
  group.tuned_us = 9.567664190742189;
  group.executed_default_us = 10.440931054046636;
  group.executed_tuned_us = 9.567664190742189;
  table.add_group(group);
  tune::GroupResult tie;
  tie.key = "tgbm/tree_sync/b0";
  tie.point = "block=256;items=1";
  tie.default_us = 5.5;
  tie.tuned_us = 5.5;
  table.add_group(tie);
  // Shortest round-trip doubles; an unprobed group's executed speedup is 1.
  EXPECT_EQ(table.to_csv(),
            "group,point,default_us,tuned_us,predicted_speedup,"
            "executed_default_us,executed_tuned_us,executed_speedup\n"
            "tgbm/gradient_reduce/b19,block=32;items=8,10.440931054046635,"
            "9.567664190742189,1.091272733437847,10.440931054046636,"
            "9.567664190742189,1.0912727334378471\n"
            "tgbm/tree_sync/b0,block=256;items=1,5.5,5.5,1,0,0,1\n");
}

// ---------------------------------------------------------------------------
// site_configs: a tuner store applied to the default kernel configs

/// Store key prefix of covtype's site `k`.
std::string site_prefix(int k) {
  const auto sites =
      tgbm::kernel_sites(tgbm::covtype_spec(), tgbm::GbmParams{});
  return tune::shape_key("tgbm/" + sites[k].name,
                         static_cast<std::int64_t>(sites[k].work_items));
}

tgbm::ConfigSet covtype_site_configs(const tune::StoreEntries& store) {
  return tune::site_configs(tgbm::covtype_spec(), tgbm::GbmParams{}, store);
}

void expect_configs_equal(const tgbm::ConfigSet& a, const tgbm::ConfigSet& b) {
  for (int k = 0; k < tgbm::kNumKernels; ++k) {
    EXPECT_EQ(a[k].block_size, b[k].block_size) << "site " << k;
    EXPECT_EQ(a[k].items_per_thread, b[k].items_per_thread) << "site " << k;
  }
}

TEST(TuneSiteConfigs, EmptyStoreGivesDefaults) {
  expect_configs_equal(covtype_site_configs({}), tgbm::default_configs());
}

TEST(TuneSiteConfigs, EntriesChangeOnlyTheirSite) {
  constexpr int kSite = 7;
  const tgbm::ConfigSet configs = covtype_site_configs(
      {{site_prefix(kSite) + "/block", 512},
       {site_prefix(kSite) + "/items", 4},
       // Another dataset's bucket, or no site at all: ignored.
       {"tgbm/unknown_site/b3/block", 64}});
  tgbm::ConfigSet expected = tgbm::default_configs();
  expected[kSite] = {.block_size = 512, .items_per_thread = 4};
  expect_configs_equal(configs, expected);
}

TEST(TuneSiteConfigs, BlockSizeSnapsToChoices) {
  const std::string key = site_prefix(0) + "/block";
  for (const int block : tgbm::kBlockChoices) {
    EXPECT_EQ(covtype_site_configs({{key, block}})[0].block_size, block);
  }
  // A block size the position decode cannot produce keeps the default.
  const int fallback = tgbm::default_configs()[0].block_size;
  for (const int block : {0, 100, 2048, -256}) {
    EXPECT_EQ(covtype_site_configs({{key, block}})[0].block_size, fallback)
        << "block=" << block;
  }
}

TEST(TuneSiteConfigs, ItemsClampToRange) {
  const std::string key = site_prefix(3) + "/items";
  EXPECT_EQ(covtype_site_configs({{key, 0}})[3].items_per_thread, 1);
  EXPECT_EQ(covtype_site_configs({{key, -5}})[3].items_per_thread, 1);
  EXPECT_EQ(covtype_site_configs({{key, 9}})[3].items_per_thread, 9);
  EXPECT_EQ(covtype_site_configs({{key, 99}})[3].items_per_thread,
            tgbm::kMaxItemsPerThread);
}

TEST(TuneSiteConfigs, AppliesEveryWinnerTheTunerEmits) {
  tune::TunerOptions options;
  options.particles = 12;
  options.iterations = 6;
  const tune::Tuner tuner(vgpu::tesla_v100(), options);
  const tune::TuneReport report = tuner.tune(
      covtype_families(),
      tune::tgbm_site_shapes(tgbm::covtype_spec(), tgbm::GbmParams{}));
  ASSERT_GT(report.improved_groups(), 0);
  const tgbm::ConfigSet configs =
      covtype_site_configs(report.table.store());
  // Each outcome's key is its site's store prefix.
  for (const tune::GroupOutcome& outcome : report.outcomes) {
    int site = -1;
    for (int k = 0; k < tgbm::kNumKernels; ++k) {
      if (site_prefix(k) == outcome.key) {
        site = k;
      }
    }
    ASSERT_GE(site, 0) << outcome.key;
    EXPECT_EQ(configs[site].block_size, outcome.tuned_point[0])
        << outcome.key;
    EXPECT_EQ(configs[site].items_per_thread, outcome.tuned_point[1])
        << outcome.key;
  }
}

}  // namespace
}  // namespace fastpso
