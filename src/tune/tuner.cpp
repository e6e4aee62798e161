#include "tune/tuner.h"

#include <algorithm>
#include <span>
#include <utility>

#include "core/objective.h"
#include "core/optimizer.h"
#include "core/params.h"
#include "vgpu/device.h"

namespace fastpso::tune {
namespace {

/// Penalty returned for predicate-violating points: far above any modeled
/// kernel time, so the swarm is repelled but the objective stays finite.
constexpr double kInvalidPenaltyUs = 1e9;

}  // namespace

int TuneReport::improved_groups() const {
  int count = 0;
  for (const GroupOutcome& outcome : outcomes) {
    count += outcome.improved() ? 1 : 0;
  }
  return count;
}

Tuner::Tuner(vgpu::GpuSpec gpu, TunerOptions options)
    : gpu_(std::move(gpu)), options_(options) {}

GroupOutcome Tuner::tune_group(const KernelFamily& family,
                               const ShapeGroup& group) const {
  const WorkloadShape& shape = group.representative;
  const JoinedSpace& space = family.space;

  // (a) FastPSO over [0,1]^axes with the modeled-cost oracle.
  const core::Objective objective = core::make_objective(
      "tune/" + group.key(), 0.0, 1.0,
      [&family, &space, &shape](const float* x, int dim) {
        const Point point =
            space.decode(std::span<const float>(x, static_cast<size_t>(dim)));
        if (!space.valid(point)) {
          return kInvalidPenaltyUs;
        }
        return family.predicted_us(point, shape);
      });

  core::PsoParams params;
  params.particles = options_.particles;
  params.dim = space.axis_count();
  params.max_iter = options_.iterations;
  params.seed = options_.seed;
  vgpu::Device search_device(gpu_);
  core::Optimizer optimizer(search_device, params);
  const core::Result result = optimizer.optimize(objective);

  // (b) candidate slate: default, gbest, gbest's valid axis neighbors.
  std::vector<Point> candidates;
  candidates.push_back(family.default_point);
  const Point gbest = space.decode(std::span<const float>(
      result.gbest_position.data(), result.gbest_position.size()));
  if (space.valid(gbest)) {
    candidates.push_back(gbest);
    for (Point& neighbor : space.neighbors(gbest)) {
      candidates.push_back(std::move(neighbor));
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  GroupOutcome outcome;
  outcome.key = group.key();
  outcome.default_point = family.default_point;
  outcome.default_us = family.predicted_us(family.default_point, shape);
  outcome.tuned_point = family.default_point;
  outcome.tuned_us = outcome.default_us;
  for (const Point& candidate : candidates) {
    const double cost = family.predicted_us(candidate, shape);
    // Strict <: ties keep the earlier (lexicographically smaller, default-
    // inclusive) point, so the winner is deterministic.
    if (cost < outcome.tuned_us) {
      outcome.tuned_us = cost;
      outcome.tuned_point = candidate;
    }
  }

  // (c) executed validation: if the executed probe says the winner is not
  // at least as fast as the default, demote it.
  if (options_.executed_probe && family.executed_us) {
    outcome.executed_default_us = family.executed_us(StoreEntries{}, shape);
    outcome.executed_tuned_us = family.executed_us(
        family.entries(outcome.tuned_point, shape), shape);
    if (outcome.executed_tuned_us > outcome.executed_default_us) {
      outcome.tuned_point = family.default_point;
      outcome.tuned_us = outcome.default_us;
      outcome.executed_tuned_us = outcome.executed_default_us;
    }
  }

  outcome.point_string = family.point_string(outcome.tuned_point);
  return outcome;
}

TuneReport Tuner::tune(const std::vector<KernelFamily>& families,
                       const std::vector<WorkloadShape>& shapes) const {
  TuneReport report;
  for (const ShapeGroup& group : group_shapes(shapes)) {
    const KernelFamily* family = find_family(families, group.kernel);
    if (family == nullptr) {
      continue;
    }
    GroupOutcome outcome = tune_group(*family, group);

    GroupResult result;
    result.key = outcome.key;
    result.point = outcome.point_string;
    result.default_us = outcome.default_us;
    result.tuned_us = outcome.tuned_us;
    result.executed_default_us = outcome.executed_default_us;
    result.executed_tuned_us = outcome.executed_tuned_us;
    report.table.add_group(std::move(result));

    if (outcome.tuned_point != outcome.default_point) {
      for (const auto& [key, value] :
           family->entries(outcome.tuned_point, group.representative)) {
        report.table.set(key, value);
      }
    }
    report.outcomes.push_back(std::move(outcome));
  }
  return report;
}

ThreadConfSearch search_threadconf(const tgbm::ThreadConfProblem& problem,
                                   int particles, int iterations,
                                   std::uint64_t seed) {
  core::PsoParams pso;
  pso.particles = particles;
  pso.dim = tgbm::kConfigDims;  // 25 kernels x 2 = the paper's 50 dims
  pso.max_iter = iterations;
  pso.seed = seed;
  vgpu::Device tuner_device;
  core::Optimizer optimizer(tuner_device, pso);
  ThreadConfSearch search{
      optimizer.optimize(core::objective_from_problem(problem, pso.dim)),
      {}};
  search.configs = tgbm::configs_from_position(
      std::span<const float>(search.result.gbest_position));
  return search;
}

}  // namespace fastpso::tune
