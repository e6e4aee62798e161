// Integration tests for the full FastPSO optimizer.

#include <gtest/gtest.h>

#include <cmath>

#include "core/optimizer.h"
#include "problems/problem.h"
#include "vgpu/device.h"
#include "vgpu/memory_pool.h"

namespace fastpso::core {
namespace {

PsoParams small_params(int n = 200, int d = 10, int iters = 150) {
  PsoParams params;
  params.particles = n;
  params.dim = d;
  params.max_iter = iters;
  params.seed = 42;
  return params;
}

TEST(Optimizer, ConvergesOnSphere) {
  vgpu::Device device;
  Optimizer optimizer(device, small_params(200, 10, 400));
  const auto problem = problems::make_problem("sphere");
  const Result result =
      optimizer.optimize(objective_from_problem(*problem, 10));
  EXPECT_LT(result.error_to(0.0), 3.0);  // plateau ~0.12/dim (paper Table 2: 23.6 at d=200)
  EXPECT_EQ(result.iterations, 400);
}

TEST(Optimizer, ImprovesOnRastrigin) {
  vgpu::Device device;
  Optimizer optimizer(device, small_params(300, 8, 200));
  const auto problem = problems::make_problem("rastrigin");
  const Result result =
      optimizer.optimize(objective_from_problem(*problem, 8));
  EXPECT_LT(result.gbest_value, 30.0);  // random start is ~130 for d=8
}

TEST(Optimizer, GbestPositionEvaluatesToGbestValue) {
  vgpu::Device device;
  Optimizer optimizer(device, small_params());
  const auto problem = problems::make_problem("sphere");
  const Objective objective = objective_from_problem(*problem, 10);
  const Result result = optimizer.optimize(objective);
  const double reeval =
      objective.fn(result.gbest_position.data(),
                   static_cast<int>(result.gbest_position.size()));
  EXPECT_NEAR(reeval, result.gbest_value,
              1e-5 * std::max(1.0, std::abs(reeval)));
}

TEST(Optimizer, DeterministicForSeed) {
  const auto problem = problems::make_problem("griewank");
  Result results[2];
  for (auto& result : results) {
    vgpu::Device device;
    Optimizer optimizer(device, small_params(100, 6, 50));
    result = optimizer.optimize(objective_from_problem(*problem, 6));
  }
  EXPECT_EQ(results[0].gbest_value, results[1].gbest_value);
  EXPECT_EQ(results[0].gbest_position, results[1].gbest_position);
}

TEST(Optimizer, SeedChangesTrajectory) {
  const auto problem = problems::make_problem("griewank");
  vgpu::Device device;
  PsoParams params = small_params(100, 6, 50);
  Optimizer a(device, params);
  const Result ra = a.optimize(objective_from_problem(*problem, 6));
  params.seed = 43;
  Optimizer b(device, params);
  const Result rb = b.optimize(objective_from_problem(*problem, 6));
  EXPECT_NE(ra.gbest_value, rb.gbest_value);
}

TEST(Optimizer, GbestMonotoneThroughCallback) {
  vgpu::Device device;
  Optimizer optimizer(device, small_params(100, 6, 80));
  const auto problem = problems::make_problem("sphere");
  double prev = std::numeric_limits<double>::infinity();
  optimizer.optimize(objective_from_problem(*problem, 6),
                     [&](int, double gbest) {
                       EXPECT_LE(gbest, prev);
                       prev = gbest;
                       return true;
                     });
}

TEST(Optimizer, CallbackCanStopEarly) {
  vgpu::Device device;
  Optimizer optimizer(device, small_params(100, 6, 1000));
  const auto problem = problems::make_problem("sphere");
  const Result result = optimizer.optimize(
      objective_from_problem(*problem, 6),
      [](int iter, double) { return iter < 9; });
  EXPECT_EQ(result.iterations, 10);
}

TEST(Optimizer, BreakdownHasAllFiveSteps) {
  vgpu::Device device;
  Optimizer optimizer(device, small_params(100, 6, 20));
  const auto problem = problems::make_problem("sphere");
  const Result result =
      optimizer.optimize(objective_from_problem(*problem, 6));
  for (const char* step : {"init", "eval", "pbest", "gbest", "swarm"}) {
    EXPECT_GT(result.modeled_breakdown.get(step), 0.0) << step;
    EXPECT_GT(result.wall_breakdown.get(step), 0.0) << step;
  }
  EXPECT_NEAR(result.modeled_breakdown.total(), result.modeled_seconds,
              1e-12);
}

TEST(Optimizer, CountersPopulated) {
  vgpu::Device device;
  Optimizer optimizer(device, small_params(100, 6, 20));
  const auto problem = problems::make_problem("sphere");
  const Result result =
      optimizer.optimize(objective_from_problem(*problem, 6));
  EXPECT_GT(result.counters.launches, 100u);  // several kernels x 20 iters
  EXPECT_GT(result.counters.flops, 0.0);
  EXPECT_GT(result.counters.dram_read_fetched, 0.0);
}

TEST(Optimizer, MemoryCachingReducesModeledTimeAndAllocs) {
  const auto problem = problems::make_problem("sphere");
  Result cached;
  Result realloc;
  {
    vgpu::Device device;
    PsoParams params = small_params(500, 50, 50);
    params.memory_caching = true;
    Optimizer optimizer(device, params);
    cached = optimizer.optimize(objective_from_problem(*problem, 50));
  }
  {
    vgpu::Device device;
    PsoParams params = small_params(500, 50, 50);
    params.memory_caching = false;
    Optimizer optimizer(device, params);
    realloc = optimizer.optimize(objective_from_problem(*problem, 50));
  }
  EXPECT_LT(cached.modeled_seconds, realloc.modeled_seconds);
  EXPECT_LT(cached.counters.allocs, realloc.counters.allocs);
  // Same optimization result either way — caching is purely a memory
  // management change.
  EXPECT_EQ(cached.gbest_value, realloc.gbest_value);
}

TEST(Optimizer, AllTechniquesConverge) {
  const auto problem = problems::make_problem("sphere");
  for (UpdateTechnique technique :
       {UpdateTechnique::kGlobalMemory, UpdateTechnique::kSharedMemory,
        UpdateTechnique::kTensorCore}) {
    vgpu::Device device;
    PsoParams params = small_params(200, 10, 300);
    params.technique = technique;
    Optimizer optimizer(device, params);
    const Result result =
        optimizer.optimize(objective_from_problem(*problem, 10));
    EXPECT_LT(result.error_to(0.0), 3.0)
        << "technique " << to_string(technique);
  }
}

TEST(Optimizer, CustomObjectiveThroughSchema) {
  // A user-defined evaluation function (the paper's customized swarm
  // evaluation schema): distance to the point (1, 2, ..., d).
  vgpu::Device device;
  Optimizer optimizer(device, small_params(300, 5, 200));
  const Objective objective = make_objective(
      "custom-target", -10.0, 10.0, [](const float* x, int d) {
        double acc = 0;
        for (int i = 0; i < d; ++i) {
          const double delta = x[i] - (i + 1);
          acc += delta * delta;
        }
        return acc;
      });
  const Result result = optimizer.optimize(objective);
  EXPECT_LT(result.gbest_value, 0.5);
  ASSERT_EQ(result.gbest_position.size(), 5u);
  EXPECT_NEAR(result.gbest_position[4], 5.0, 0.5);
}

// One field per case that PsoParams::validate() rejects.
TEST(Optimizer, InvalidParamsThrow) {
  vgpu::Device device;
  PsoParams params;
  params.particles = 0;
  EXPECT_THROW(Optimizer(device, params), fastpso::CheckError);
  params = PsoParams{};
  params.dim = 0;
  EXPECT_THROW(Optimizer(device, params), fastpso::CheckError);
  params = PsoParams{};
  params.dim = -1;
  EXPECT_THROW(Optimizer(device, params), fastpso::CheckError);
  params = PsoParams{};
  params.max_iter = 0;
  EXPECT_THROW(Optimizer(device, params), fastpso::CheckError);
  // A ring runs only with the global-memory technique and needs 1 <=
  // ring_neighbors and 2 * ring_neighbors + 1 <= particles.
  PsoParams ring = small_params();
  ring.topology = Topology::kRing;
  EXPECT_NO_THROW(Optimizer(device, ring));
  for (const UpdateTechnique technique :
       {UpdateTechnique::kSharedMemory, UpdateTechnique::kTensorCore}) {
    params = ring;
    params.technique = technique;
    EXPECT_THROW(Optimizer(device, params), fastpso::CheckError)
        << to_string(technique);
  }
  params = ring;
  params.ring_neighbors = 0;
  EXPECT_THROW(Optimizer(device, params), fastpso::CheckError);
  params = ring;
  params.particles = 2 * params.ring_neighbors;
  EXPECT_THROW(Optimizer(device, params), fastpso::CheckError);
}

TEST(Optimizer, EmptyObjectiveRejected) {
  vgpu::Device device;
  Optimizer optimizer(device, small_params());
  Objective objective;
  objective.lower = -1;
  objective.upper = 1;
  EXPECT_THROW(optimizer.optimize(objective), fastpso::CheckError);
}

TEST(Optimizer, EmptyDomainRejected) {
  vgpu::Device device;
  Optimizer optimizer(device, small_params());
  Objective objective =
      make_objective("bad", 1.0, 1.0, [](const float*, int) { return 0.0; });
  EXPECT_THROW(optimizer.optimize(objective), fastpso::CheckError);
}

TEST(Optimizer, NoDeviceMemoryLeakAcrossRuns) {
  vgpu::Device device;
  const auto problem = problems::make_problem("sphere");
  {
    Optimizer optimizer(device, small_params(100, 6, 10));
    optimizer.optimize(objective_from_problem(*problem, 6));
  }
  // All swarm state released (the pool may cache blocks, but none are live).
  EXPECT_EQ(device.pool().outstanding(), 0u);
}

}  // namespace
}  // namespace fastpso::core
