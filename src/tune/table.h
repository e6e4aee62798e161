// Tuned-config tables: the deterministic artifact the tuner emits
// (DESIGN.md §13).
//
// A TunedTable carries two things:
//   * the flat key -> int store of winning points ("tgbm/<site>/b<bucket>/
//     block", ".../items"), which tune::site_configs turns into a
//     tgbm::ConfigSet, and
//   * per-group provenance: which point won each shape group and its
//     predicted / executed costs against the defaults — the
//     predicted-vs-executed record bench/tune_search writes as CSV.
//
// The CSV is deterministic: groups in emission order, doubles via
// shortest-round-trip formatting.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace fastpso::tune {

/// Outcome of tuning one shape group.
struct GroupResult {
  std::string key;          ///< ShapeGroup::key(), also the store prefix
  std::string point;        ///< winning point, "axis=value;..." form
  double default_us = 0;    ///< predicted cost of the default config
  double tuned_us = 0;      ///< predicted cost of the winning config
  double executed_default_us = 0;  ///< executed probe (0: not probed)
  double executed_tuned_us = 0;
};

class TunedTable {
 public:
  void set(const std::string& key, int value) { store_[key] = value; }
  void add_group(GroupResult result) {
    groups_.push_back(std::move(result));
  }

  [[nodiscard]] const std::map<std::string, int>& store() const {
    return store_;
  }
  [[nodiscard]] const std::vector<GroupResult>& groups() const {
    return groups_;
  }

  /// Deterministic CSV rendering: one predicted-vs-executed row per group.
  [[nodiscard]] std::string to_csv() const;
  bool save_csv(const std::string& path) const;

 private:
  std::map<std::string, int> store_;
  std::vector<GroupResult> groups_;
};

}  // namespace fastpso::tune
