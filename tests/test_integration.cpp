// Cross-module integration sweeps: the full optimizer pipeline across
// every built-in problem, every update technique and both synchronization
// modes, plus end-to-end consistency checks that span subsystems.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "benchkit/runner.h"
#include "core/multi_device.h"
#include "core/optimizer.h"
#include "problems/problem.h"
#include "vgpu/device.h"
#include "vgpu/memory_pool.h"

namespace fastpso {
namespace {

// ---- every problem through the full pipeline --------------------------------

class EveryProblem : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryProblem, OptimizerImprovesOverInitialBest) {
  const auto problem = problems::make_problem(GetParam());
  const int d = 8;
  const core::Objective objective =
      core::objective_from_problem(*problem, d);

  vgpu::Device device;
  core::PsoParams params;
  params.particles = 150;
  params.dim = d;
  params.max_iter = 120;
  params.seed = 7;
  core::Optimizer optimizer(device, params);

  double first_gbest = 0;
  bool captured = false;
  const core::Result result =
      optimizer.optimize(objective, [&](int iter, double gbest) {
        if (iter == 0) {
          first_gbest = gbest;
          captured = true;
        }
        return true;
      });
  ASSERT_TRUE(captured);
  EXPECT_LE(result.gbest_value, first_gbest);
  // The answer re-evaluates to itself.
  const double reeval = objective.fn(result.gbest_position.data(), d);
  EXPECT_NEAR(reeval, result.gbest_value,
              1e-4 * std::max(1.0, std::abs(reeval)));
}

TEST_P(EveryProblem, GbestStaysWithinTheSearchDomainWhenClamped) {
  const auto problem = problems::make_problem(GetParam());
  const int d = 6;
  vgpu::Device device;
  core::PsoParams params;
  params.particles = 100;
  params.dim = d;
  params.max_iter = 60;
  params.position_clamp = true;
  core::Optimizer optimizer(device, params);
  const core::Result result =
      optimizer.optimize(core::objective_from_problem(*problem, d));
  for (float x : result.gbest_position) {
    EXPECT_GE(x, problem->lower_bound() - 1e-5);
    EXPECT_LE(x, problem->upper_bound() + 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(Builtins, EveryProblem,
                         ::testing::ValuesIn(
                             problems::builtin_problem_names()));

// ---- technique x synchronization matrix ---------------------------------------

struct ModeCase {
  core::UpdateTechnique technique;
  core::Synchronization synchronization;
  bool mixed_precision;
};

// Without a printer gtest dumps the raw bytes, padding included, and the
// discovered ctest names change from build to build.
void PrintTo(const ModeCase& mode, std::ostream* os) {
  *os << core::to_string(mode.technique) << '/'
      << core::to_string(mode.synchronization) << '/'
      << (mode.mixed_precision ? "mixed" : "fp32");
}

class EveryMode : public ::testing::TestWithParam<ModeCase> {};

TEST_P(EveryMode, RastriginEndToEnd) {
  const ModeCase mode = GetParam();
  vgpu::Device device;
  core::PsoParams params;
  params.particles = 200;
  params.dim = 8;
  params.max_iter = 250;
  params.technique = mode.technique;
  params.synchronization = mode.synchronization;
  params.mixed_precision = mode.mixed_precision;
  core::Optimizer optimizer(device, params);
  const auto problem = problems::make_problem("rastrigin");
  const core::Result result =
      optimizer.optimize(core::objective_from_problem(*problem, 8));
  // Random initialization sits around 10*8 + sum ripple ~ 130.
  EXPECT_LT(result.gbest_value, 60.0);
  EXPECT_GT(result.counters.launches, 0u);
  EXPECT_GT(result.modeled_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, EveryMode,
    ::testing::Values(
        ModeCase{core::UpdateTechnique::kGlobalMemory,
                 core::Synchronization::kSynchronous, false},
        ModeCase{core::UpdateTechnique::kSharedMemory,
                 core::Synchronization::kSynchronous, false},
        ModeCase{core::UpdateTechnique::kTensorCore,
                 core::Synchronization::kSynchronous, false},
        ModeCase{core::UpdateTechnique::kTensorCore,
                 core::Synchronization::kSynchronous, true},
        ModeCase{core::UpdateTechnique::kGlobalMemory,
                 core::Synchronization::kAsynchronous, false}));

// ---- consistency across subsystems -----------------------------------------------

TEST(Integration, SingleAndMultiDeviceFindComparableOptima) {
  const auto problem = problems::make_problem("sphere");
  const core::Objective objective =
      core::objective_from_problem(*problem, 10);

  vgpu::Device device;
  core::PsoParams pso;
  pso.particles = 400;
  pso.dim = 10;
  pso.max_iter = 300;
  core::Optimizer single(device, pso);
  const core::Result rs = single.optimize(objective);

  core::MultiDeviceParams multi;
  multi.pso = pso;
  multi.devices = 2;
  core::MultiDeviceOptimizer dual(multi);
  const core::Result rm = dual.optimize(objective);

  // Both runs should land within the same convergence regime.
  EXPECT_LT(rs.error_to(0.0), 4.0);
  EXPECT_LT(rm.error_to(0.0), 4.0);
}

TEST(Integration, DevicePoolReusedAcrossSequentialRuns) {
  vgpu::Device device;
  core::PsoParams params;
  params.particles = 200;
  params.dim = 20;
  params.max_iter = 10;
  const auto problem = problems::make_problem("sphere");
  const core::Objective objective =
      core::objective_from_problem(*problem, 20);

  core::Optimizer optimizer(device, params);
  optimizer.optimize(objective);
  const auto misses_first = device.pool().cache_misses();
  optimizer.optimize(objective);
  // The second run allocates the identical working set: all cache hits.
  EXPECT_EQ(device.pool().cache_misses(), misses_first);
}

TEST(Integration, RunnerMatchesDirectOptimizer) {
  benchkit::RunSpec spec;
  spec.impl = benchkit::Impl::kFastPso;
  spec.problem = "griewank";
  spec.particles = 100;
  spec.dim = 12;
  spec.iters = 80;
  spec.executed_iters = 80;
  spec.seed = 99;
  const benchkit::RunOutcome outcome = benchkit::run_spec(spec);

  vgpu::Device device;
  core::PsoParams params;
  params.particles = 100;
  params.dim = 12;
  params.max_iter = 80;
  params.seed = 99;
  core::Optimizer optimizer(device, params);
  const auto problem = problems::make_problem("griewank");
  const core::Result direct =
      optimizer.optimize(core::objective_from_problem(*problem, 12));

  EXPECT_EQ(outcome.result.gbest_value, direct.gbest_value);
  EXPECT_EQ(outcome.result.gbest_position, direct.gbest_position);
}

TEST(Integration, ModeledTimeDecomposesIntoPhases) {
  vgpu::Device device;
  core::PsoParams params;
  params.particles = 300;
  params.dim = 40;
  params.max_iter = 25;
  core::Optimizer optimizer(device, params);
  const auto problem = problems::make_problem("ackley");
  const core::Result result =
      optimizer.optimize(core::objective_from_problem(*problem, 40));
  double phase_sum = 0;
  for (const auto& [phase, seconds] : result.modeled_breakdown.buckets()) {
    (void)phase;
    phase_sum += seconds;
  }
  EXPECT_NEAR(phase_sum, result.modeled_seconds, 1e-12);
  EXPECT_NEAR(result.counters.modeled_seconds, result.modeled_seconds,
              1e-12);
}

TEST(Integration, AdaptiveBoundOffReproducesPlateauBehaviour) {
  // With the anneal disabled the clamp is fixed and the run plateaus well
  // above the annealed run's error — the empirical fact DESIGN.md §4.5
  // documents.
  const auto problem = problems::make_problem("sphere");
  const core::Objective objective =
      core::objective_from_problem(*problem, 20);
  core::PsoParams params;
  params.particles = 300;
  params.dim = 20;
  params.max_iter = 500;

  vgpu::Device dev_annealed;
  core::Optimizer annealed(dev_annealed, params);
  const core::Result ra = annealed.optimize(objective);

  params.adaptive_velocity_bound = false;
  vgpu::Device dev_fixed;
  core::Optimizer fixed(dev_fixed, params);
  const core::Result rf = fixed.optimize(objective);

  EXPECT_LT(ra.gbest_value, rf.gbest_value / 5.0);
}

}  // namespace
}  // namespace fastpso
