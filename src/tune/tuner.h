// The offline autotuner: searches each shape group's JoinedSpace with
// FastPSO itself (DESIGN.md §13).
//
// Per group the tuner (a) runs a small PSO over [0,1]^axes whose objective
// decodes positions into configuration points and scores valid ones with
// the family's GpuPerfModel-based predicted cost (invalid points get a
// large penalty, so the swarm is repelled from predicate violations but
// nothing invalid can ever win); (b) forms a candidate slate — the default
// point, the PSO gbest, and the gbest's valid axis neighbors — and picks
// the predicted-cost argmin, so the tuned choice can never be predicted
// worse than the default; (c) optionally validates with the family's
// executed probe, demoting to the default if it disagrees with the
// prediction. Winning non-default points are emitted into a TunedTable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/result.h"
#include "tgbm/kernels.h"
#include "tgbm/threadconf.h"
#include "tune/kernels.h"
#include "tune/shapes.h"
#include "tune/table.h"
#include "vgpu/device_spec.h"

namespace fastpso::tune {

struct TunerOptions {
  int particles = 48;        ///< PSO swarm size per group search
  int iterations = 24;       ///< PSO iterations per group search
  std::uint64_t seed = 42;
  bool executed_probe = true;  ///< run executed-probe validation
};

/// Outcome of tuning one shape group.
struct GroupOutcome {
  std::string key;          ///< ShapeGroup::key()
  Point default_point;
  Point tuned_point;        ///< == default_point when nothing beat it
  std::string point_string; ///< tuned point, "axis=value;..." form
  double default_us = 0;    ///< predicted
  double tuned_us = 0;      ///< predicted
  double executed_default_us = 0;  ///< 0 when not probed
  double executed_tuned_us = 0;

  /// Strict predicted improvement over the default configuration.
  [[nodiscard]] bool improved() const { return tuned_us < default_us; }
};

struct TuneReport {
  TunedTable table;
  std::vector<GroupOutcome> outcomes;

  [[nodiscard]] int improved_groups() const;
};

class Tuner {
 public:
  explicit Tuner(vgpu::GpuSpec gpu, TunerOptions options = {});

  /// Tunes every group of `shapes` whose kernel label names a family in
  /// `families`; groups without a family are skipped.
  [[nodiscard]] TuneReport tune(const std::vector<KernelFamily>& families,
                                const std::vector<WorkloadShape>& shapes)
      const;

  /// Tunes one group against its family.
  [[nodiscard]] GroupOutcome tune_group(const KernelFamily& family,
                                        const ShapeGroup& group) const;

 private:
  vgpu::GpuSpec gpu_;
  TunerOptions options_;
};

/// The Table 5 ThreadConf search expressed through the tuner layer: one
/// FastPSO run over the 50-dimensional ThreadConf objective, returning the
/// optimizer result and the decoded kernel configurations. This performs
/// the exact optimize() call the original bench loop hardcoded (same
/// params, same seed, same objective), so results are byte-identical to
/// the pre-tuner flow.
struct ThreadConfSearch {
  core::Result result;
  tgbm::ConfigSet configs;
};
ThreadConfSearch search_threadconf(const tgbm::ThreadConfProblem& problem,
                                   int particles, int iterations,
                                   std::uint64_t seed);

}  // namespace fastpso::tune
