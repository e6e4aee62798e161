// Tests for the multi-GPU strategies (paper Section 3.5) on the comm stack
// (core/multi_device.h), and the cross-device differential suite pinning
// them to single-device FastPSO and to literal values.
//
// The multi-device contract under test:
//   * kTileMatrix is BITWISE IDENTICAL — gbest value, position, per-
//     iteration history — to single-device FastPSO for every device count:
//     all randoms come from the global element index space and the
//     rank-ordered collective reduction reproduces the global argmin
//     tie-break.
//   * kParticleSplit on one device is bitwise identical to single-device
//     FastPSO at every sync_interval. Its per-shard seeds make runs on more
//     devices legitimately different, so those are pinned to literal
//     digests of their gbest value, history and position.
//   * Modeled time is max(device_seconds), with the collectives inside
//     each device's comm stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bit_digest.h"
#include "common/trace_export.h"
#include "core/multi_device.h"
#include "core/optimizer.h"
#include "benchkit/runner.h"
#include "problems/problem.h"
#include "serve/group.h"
#include "vgpu/comm/comm.h"
#include "vgpu/prof/prof.h"

namespace fastpso::core {
namespace {

MultiDeviceParams small_multi(int devices, MultiGpuStrategy strategy) {
  MultiDeviceParams params;
  params.pso.particles = 240;
  params.pso.dim = 8;
  params.pso.max_iter = 250;
  params.pso.seed = 42;
  params.devices = devices;
  params.strategy = strategy;
  return params;
}

/// The shared shape of the differential runs: small enough that the full
/// problems × strategies × device-counts matrix stays fast, big enough
/// that shards at 8 devices still hold several particles each.
PsoParams diff_pso(int dim) {
  PsoParams pso;
  pso.particles = 96;
  pso.dim = dim;
  pso.max_iter = 60;
  pso.seed = 42;
  return pso;
}

Result single_device_run(const PsoParams& pso, const std::string& problem) {
  vgpu::Device device;
  const auto prob = benchkit::make_any_problem(problem);
  Optimizer optimizer(device, pso);
  return optimizer.optimize(objective_from_problem(*prob, pso.dim));
}

Result multi_run(const PsoParams& pso, int devices, MultiGpuStrategy strategy,
                 const std::string& problem, int sync_interval = 10,
                 std::unique_ptr<MultiDeviceOptimizer>* keep = nullptr) {
  MultiDeviceParams params;
  params.pso = pso;
  params.devices = devices;
  params.strategy = strategy;
  params.sync_interval = sync_interval;
  auto optimizer = std::make_unique<MultiDeviceOptimizer>(params);
  const auto prob = benchkit::make_any_problem(problem);
  Result result = optimizer->optimize(objective_from_problem(*prob, pso.dim));
  if (keep != nullptr) {
    *keep = std::move(optimizer);
  }
  return result;
}

/// Bitwise equality of everything two decompositions of the same swarm
/// must share. Counters and modeled seconds are intentionally excluded:
/// a sharded run pays for its collectives and splits its accounting
/// across devices.
void expect_same_optimum(const Result& a, const Result& b) {
  EXPECT_EQ(a.gbest_value, b.gbest_value);
  EXPECT_EQ(a.gbest_position, b.gbest_position);
  EXPECT_EQ(a.gbest_history, b.gbest_history);
  EXPECT_EQ(a.iterations, b.iterations);
}

/// A particle-split cell of diff_pso(8): the gbest value's bits and an
/// FNV-1a-64 digest of the gbest history bits followed by the position
/// bits. Recorded when a second implementation of the strategy (staged
/// host exchanges instead of collectives) agreed on every cell; they hold
/// under FASTPSO_FAST_PATH=0, one host worker and glibc's AVX/FMA variants
/// masked.
struct SplitPin {
  const char* problem;
  int devices;
  int sync_interval;
  std::uint64_t gbest_bits;
  std::uint64_t digest;
};

void expect_matches_pin(const SplitPin& pin) {
  const PsoParams pso = diff_pso(8);
  SCOPED_TRACE(std::string(pin.problem) + " devices " +
               std::to_string(pin.devices) + " sync_interval " +
               std::to_string(pin.sync_interval));
  const Result result =
      multi_run(pso, pin.devices, MultiGpuStrategy::kParticleSplit,
                pin.problem, pin.sync_interval);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.gbest_value),
            pin.gbest_bits);
  EXPECT_EQ(fnv1a_bits(result.gbest_position,
                       fnv1a_bits(result.gbest_history)),
            pin.digest);
  EXPECT_EQ(result.iterations, pso.max_iter);
}

// ---- strategy behaviour --------------------------------------------------

TEST(MultiGpu, TileMatrixConvergesOnSphere) {
  MultiDeviceOptimizer optimizer(
      small_multi(2, MultiGpuStrategy::kTileMatrix));
  const auto problem = problems::make_problem("sphere");
  const Result result =
      optimizer.optimize(objective_from_problem(*problem, 8));
  EXPECT_LT(result.error_to(0.0), 2.5);
}

TEST(MultiGpu, ParticleSplitConvergesOnSphere) {
  MultiDeviceOptimizer optimizer(
      small_multi(2, MultiGpuStrategy::kParticleSplit));
  const auto problem = problems::make_problem("sphere");
  const Result result =
      optimizer.optimize(objective_from_problem(*problem, 8));
  EXPECT_LT(result.error_to(0.0), 2.5);
}

TEST(MultiGpu, FourDevicesStillConverge) {
  for (auto strategy : {MultiGpuStrategy::kTileMatrix,
                        MultiGpuStrategy::kParticleSplit}) {
    MultiDeviceOptimizer optimizer(small_multi(4, strategy));
    const auto problem = problems::make_problem("sphere");
    const Result result =
        optimizer.optimize(objective_from_problem(*problem, 8));
    EXPECT_LT(result.error_to(0.0), 2.0) << to_string(strategy);
  }
}

TEST(MultiGpu, DeviceSecondsReportedPerDevice) {
  MultiDeviceOptimizer optimizer(
      small_multi(3, MultiGpuStrategy::kTileMatrix));
  const auto problem = problems::make_problem("sphere");
  const Result result =
      optimizer.optimize(objective_from_problem(*problem, 8));
  ASSERT_EQ(optimizer.device_seconds().size(), 3u);
  double max_device = 0;
  for (double s : optimizer.device_seconds()) {
    EXPECT_GT(s, 0.0);
    max_device = std::max(max_device, s);
  }
  // Concurrent devices: the total is the slowest device, well under the
  // serial sum.
  EXPECT_GE(result.modeled_seconds, max_device);
  double sum = 0;
  for (double s : optimizer.device_seconds()) {
    sum += s;
  }
  EXPECT_LT(result.modeled_seconds, sum);
}

TEST(MultiGpu, ShardsShareTheSameGbestEachIterationUnderTileMatrix) {
  // Tile-matrix completes the reduction every iteration, so the returned
  // best must beat or match a single-shard run of the same sub-swarm size.
  MultiDeviceOptimizer multi(small_multi(2, MultiGpuStrategy::kTileMatrix));
  const auto problem = problems::make_problem("rastrigin");
  const Result result =
      multi.optimize(objective_from_problem(*problem, 8));
  // Result position must evaluate back to the reported value.
  const Objective objective = objective_from_problem(*problem, 8);
  const double reeval = objective.fn(
      result.gbest_position.data(),
      static_cast<int>(result.gbest_position.size()));
  EXPECT_NEAR(reeval, result.gbest_value,
              1e-4 * std::max(1.0, std::abs(reeval)));
}

TEST(MultiGpu, SyncIntervalControlsExchange) {
  // With a huge sync interval the particle-split strategy only exchanges
  // at the end; it still returns the best across shards.
  MultiDeviceParams params = small_multi(2, MultiGpuStrategy::kParticleSplit);
  params.sync_interval = 1000000;
  MultiDeviceOptimizer optimizer(params);
  const auto problem = problems::make_problem("sphere");
  const Result result =
      optimizer.optimize(objective_from_problem(*problem, 8));
  EXPECT_LT(result.error_to(0.0), 5.0);
}

TEST(MultiDevice, InvalidConfigsThrow) {
  // One rejected field per case. The device layout rules come first, then
  // PsoParams::validate(), then the options the sharded pipeline does not
  // implement (each would otherwise run silently as something else).
  const MultiDeviceParams base = small_multi(2, MultiGpuStrategy::kTileMatrix);
  MultiDeviceParams params = base;
  params.devices = 0;
  EXPECT_THROW(MultiDeviceOptimizer{params}, fastpso::CheckError);
  params = base;
  params.pso.particles = 1;
  EXPECT_THROW(MultiDeviceOptimizer{params}, fastpso::CheckError);
  params = base;
  params.pso.particles = 0;
  EXPECT_THROW(MultiDeviceOptimizer{params}, fastpso::CheckError);
  params = base;
  params.sync_interval = 0;
  EXPECT_THROW(MultiDeviceOptimizer{params}, fastpso::CheckError);
  params = base;
  params.pso.dim = 0;
  EXPECT_THROW(MultiDeviceOptimizer{params}, fastpso::CheckError);
  params = base;
  params.pso.max_iter = 0;
  EXPECT_THROW(MultiDeviceOptimizer{params}, fastpso::CheckError);
  params = base;
  params.pso.topology = Topology::kRing;
  EXPECT_THROW(MultiDeviceOptimizer{params}, fastpso::CheckError);
  // validate()'s ring rules reject these before the topology check does.
  for (const UpdateTechnique technique :
       {UpdateTechnique::kSharedMemory, UpdateTechnique::kTensorCore}) {
    params = base;
    params.pso.topology = Topology::kRing;
    params.pso.technique = technique;
    EXPECT_THROW(MultiDeviceOptimizer{params}, fastpso::CheckError)
        << to_string(technique);
  }
  params = base;
  params.pso.topology = Topology::kRing;
  params.pso.ring_neighbors = 0;
  EXPECT_THROW(MultiDeviceOptimizer{params}, fastpso::CheckError);
  params = base;
  params.pso.synchronization = Synchronization::kAsynchronous;
  EXPECT_THROW(MultiDeviceOptimizer{params}, fastpso::CheckError);
  params = base;
  params.pso.overlap_init = true;
  EXPECT_THROW(MultiDeviceOptimizer{params}, fastpso::CheckError);
  params = base;
  params.pso.target_value = 50.0;
  EXPECT_THROW(MultiDeviceOptimizer{params}, fastpso::CheckError);
  params = base;
  params.pso.stall_patience = 5;
  EXPECT_THROW(MultiDeviceOptimizer{params}, fastpso::CheckError);
  // The defaults themselves are accepted.
  EXPECT_NO_THROW(MultiDeviceOptimizer{base});
}

TEST(MultiGpu, SingleDeviceDegenerateCaseWorks) {
  MultiDeviceOptimizer optimizer(
      small_multi(1, MultiGpuStrategy::kTileMatrix));
  const auto problem = problems::make_problem("sphere");
  const Result result =
      optimizer.optimize(objective_from_problem(*problem, 8));
  EXPECT_LT(result.error_to(0.0), 2.5);
  EXPECT_EQ(optimizer.device_seconds().size(), 1u);
}

TEST(MultiGpu, StrategyNames) {
  EXPECT_STREQ(to_string(MultiGpuStrategy::kParticleSplit),
               "particle-split");
  EXPECT_STREQ(to_string(MultiGpuStrategy::kTileMatrix), "tile-matrix");
}

// ---- cross-device differential suite -------------------------------------

TEST(MultiDeviceDifferential, TileMatrixMatchesSingleDeviceBitwise) {
  // The headline identity: sharding a tile-matrix swarm over any device
  // count is invisible in the result — value, position and the entire
  // per-iteration history.
  const PsoParams pso = diff_pso(8);
  const Result single = single_device_run(pso, "rastrigin");
  for (int devices : {1, 2, 3, 4, 8}) {
    SCOPED_TRACE("devices " + std::to_string(devices));
    expect_same_optimum(
        single,
        multi_run(pso, devices, MultiGpuStrategy::kTileMatrix, "rastrigin"));
  }
}

TEST(MultiDeviceDifferential, ParticleSplitOnOneDeviceMatchesSingleDevice) {
  // One shard is the whole swarm: its seed is the run seed, its local best
  // is the global best and every exchange adopts nothing, so the result
  // is the single-device run's at any sync_interval.
  const PsoParams pso = diff_pso(8);
  for (const std::string problem :
       {"sphere", "griewank", "easom", "threadconf", "rastrigin"}) {
    const Result single = single_device_run(pso, problem);
    for (int sync_interval : {1, 3, 10, 1000000}) {
      SCOPED_TRACE(problem + " sync_interval " +
                   std::to_string(sync_interval));
      expect_same_optimum(single,
                          multi_run(pso, 1, MultiGpuStrategy::kParticleSplit,
                                    problem, sync_interval));
    }
  }
}

TEST(MultiDeviceDifferential, Table1ProblemsMatchSoloAndPins) {
  // The full matrix: four evaluation problems x both strategies x device
  // counts. Tile-matrix must equal the single-device run; particle-split
  // (per-shard seeds) must equal its pins at the default sync_interval.
  static constexpr SplitPin kPins[] = {
      {"sphere", 2, 10, 0x3fb34f3220000000ull, 0x620867ea2584b5c3ull},
      {"sphere", 3, 10, 0x3faca4c9a0000000ull, 0x4de224c69c970bc3ull},
      {"sphere", 4, 10, 0x3faa559960000000ull, 0x69e403e853c4a9c6ull},
      {"sphere", 8, 10, 0x3fae9d5080000000ull, 0x2446b0545b8f7c1full},
      {"griewank", 2, 10, 0x3ff30312e0000000ull, 0x762ab8357d29aa6aull},
      {"griewank", 3, 10, 0x3ff2169360000000ull, 0x2cce21389377edeeull},
      {"griewank", 4, 10, 0x3ff3327960000000ull, 0x7b3e1de4e434644eull},
      {"griewank", 8, 10, 0x3ff3346de0000000ull, 0x755e6137d682dab4ull},
      {"easom", 2, 10, 0xbfeb01a2e0000000ull, 0x29c031ddb91cfab4ull},
      {"easom", 3, 10, 0xbfea814d40000000ull, 0x49dfa26029d9a07aull},
      {"easom", 4, 10, 0xbfec6a4f80000000ull, 0x6c313cd092c7bfadull},
      {"easom", 8, 10, 0xbfe8c64460000000ull, 0xa6a5c45c396bc1c2ull},
      {"threadconf", 2, 10, 0x4095a82340000000ull, 0x9e5cf98bfb4a0c6eull},
      {"threadconf", 3, 10, 0x4095a82440000000ull, 0xa69f7f332ddedd4aull},
      {"threadconf", 4, 10, 0x4095a82440000000ull, 0x306ecfb8eac236b4ull},
      {"threadconf", 8, 10, 0x4095a82440000000ull, 0xc7ed1b8736ee9e65ull},
  };
  const PsoParams pso = diff_pso(8);
  for (const std::string problem :
       {"sphere", "griewank", "easom", "threadconf"}) {
    const Result single = single_device_run(pso, problem);
    for (int devices : {2, 3, 4, 8}) {
      SCOPED_TRACE(problem + " tile-matrix devices " +
                   std::to_string(devices));
      expect_same_optimum(
          single,
          multi_run(pso, devices, MultiGpuStrategy::kTileMatrix, problem));
    }
  }
  for (const SplitPin& pin : kPins) {
    expect_matches_pin(pin);
  }
}

TEST(MultiDeviceDifferential, ParticleSplitMatchesPinsAcrossSyncIntervals) {
  static constexpr SplitPin kPins[] = {
      {"rastrigin", 4, 1, 0x402d256780000000ull, 0x9c3482d95cf4d1a2ull},
      {"rastrigin", 4, 3, 0x403d00c740000000ull, 0x154d28b797ad8e9cull},
      {"rastrigin", 4, 7, 0x402f4b1ae0000000ull, 0x3c4138969f6b31c8ull},
      {"rastrigin", 4, 1000000, 0x40343d9e00000000ull, 0x154298a4cf4d8133ull},
  };
  for (const SplitPin& pin : kPins) {
    expect_matches_pin(pin);
  }
}

TEST(MultiDeviceDifferential, RunsAreDeterministicAcrossReruns) {
  const PsoParams pso = diff_pso(8);
  for (auto strategy : {MultiGpuStrategy::kTileMatrix,
                        MultiGpuStrategy::kParticleSplit}) {
    const Result first = multi_run(pso, 3, strategy, "griewank");
    const Result second = multi_run(pso, 3, strategy, "griewank");
    SCOPED_TRACE(to_string(strategy));
    expect_same_optimum(first, second);
    EXPECT_EQ(first.modeled_seconds, second.modeled_seconds);
    EXPECT_EQ(first.counters.flops, second.counters.flops);
    EXPECT_EQ(first.counters.comm_seconds, second.counters.comm_seconds);
    EXPECT_EQ(first.counters.collectives, second.counters.collectives);
  }
}

TEST(MultiDevice, ModeledTimeIsMaxOverDevicesWithCommInside) {
  // Collectives live inside each device's comm stream, so the total is
  // exactly the slowest device — no separate exchange term.
  const PsoParams pso = diff_pso(8);
  for (auto strategy : {MultiGpuStrategy::kTileMatrix,
                        MultiGpuStrategy::kParticleSplit}) {
    MultiDeviceParams params;
    params.pso = pso;
    params.devices = 3;
    params.strategy = strategy;
    MultiDeviceOptimizer optimizer(params);
    const auto problem = problems::make_problem("rastrigin");
    const Result result =
        optimizer.optimize(objective_from_problem(*problem, pso.dim));
    SCOPED_TRACE(to_string(strategy));
    ASSERT_EQ(optimizer.device_seconds().size(), 3u);
    const double max_device = *std::max_element(
        optimizer.device_seconds().begin(), optimizer.device_seconds().end());
    EXPECT_EQ(result.modeled_seconds, max_device);
    // Every rank pays every collective once, on its own comm stream.
    EXPECT_FALSE(optimizer.collectives().empty());
    ASSERT_EQ(optimizer.comm_seconds().size(), 3u);
    for (double s : optimizer.comm_seconds()) {
      EXPECT_GT(s, 0.0);
      EXPECT_EQ(s, optimizer.comm_seconds()[0]);
    }
  }
}

TEST(MultiDevice, TileMatrixIssuesTwoCollectivesPerIteration) {
  const PsoParams pso = diff_pso(8);
  std::unique_ptr<MultiDeviceOptimizer> optimizer;
  (void)multi_run(pso, 4, MultiGpuStrategy::kTileMatrix, "sphere", 10,
                   &optimizer);
  // One (err, rank) argmin allreduce + one gbest-row broadcast per
  // iteration.
  EXPECT_EQ(optimizer->collectives().size(),
            2u * static_cast<std::size_t>(pso.max_iter));
  for (std::size_t i = 0; i < optimizer->collectives().size(); i += 2) {
    EXPECT_EQ(optimizer->collectives()[i].label, "allreduce_minloc");
    EXPECT_EQ(optimizer->collectives()[i + 1].label, "broadcast");
    EXPECT_EQ(optimizer->collectives()[i + 1].cost.payload_bytes,
              pso.dim * 4.0);
  }
}

TEST(MultiDevice, CollectivesOverlapComputeInTheProfile) {
  // The overlap the comm stream exists for: while the gbest exchange is in
  // flight, the next iteration's weight fills run on stream 0 — visible as
  // a "comm" event intersecting a kernel event on another stream of the
  // same device.
  const bool saved_prof = vgpu::prof::active();
  vgpu::prof::set_enabled(true);
  const PsoParams pso = diff_pso(8);
  std::unique_ptr<MultiDeviceOptimizer> optimizer;
  (void)multi_run(pso, 2, MultiGpuStrategy::kTileMatrix, "rastrigin", 10,
                   &optimizer);
  vgpu::prof::set_enabled(saved_prof);

  int overlapped = 0;
  for (int device = 0; device < optimizer->group()->size(); ++device) {
    const vgpu::prof::Profile* profile =
        optimizer->group()->device(device).profile();
    ASSERT_NE(profile, nullptr);
    for (const vgpu::prof::Event& comm_event : profile->events) {
      if (comm_event.kind != vgpu::prof::EventKind::kComm) {
        continue;
      }
      const double begin = comm_event.t_begin;
      const double end = begin + comm_event.modeled_seconds;
      for (const vgpu::prof::Event& kernel : profile->events) {
        if (kernel.kind != vgpu::prof::EventKind::kKernel ||
            kernel.stream == comm_event.stream) {
          continue;
        }
        const double k_begin = kernel.t_begin;
        const double k_end = k_begin + kernel.modeled_seconds;
        if (std::max(begin, k_begin) < std::min(end, k_end)) {
          ++overlapped;
          break;
        }
      }
    }
  }
  EXPECT_GT(overlapped, pso.max_iter)
      << "collectives never overlapped compute on another stream";
}

// ---- multi-device serving ------------------------------------------------

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D49B129649CA1Dull;
  return z ^ (z >> 31);
}

/// `count` randomly shaped serve jobs from a fixed seed (the test_serve
/// stress recipe: an 8-entry shape table so per-device graph caches get
/// hits, budgets/seeds/priorities/tenants all seed-derived).
std::vector<serve::JobSpec> stress_specs(int count, std::uint64_t seed) {
  struct ShapeRow {
    const char* problem;
    int particles;
    int dim;
  };
  static constexpr ShapeRow kShapes[] = {
      {"sphere", 32, 8},    {"rastrigin", 16, 4}, {"rosenbrock", 32, 8},
      {"ackley", 8, 4},     {"griewank", 16, 8},  {"zakharov", 32, 4},
      {"levy", 8, 2},       {"schwefel", 16, 2},
  };
  std::vector<serve::JobSpec> specs;
  specs.reserve(static_cast<std::size_t>(count));
  std::uint64_t state = seed;
  for (int i = 0; i < count; ++i) {
    const ShapeRow& row = kShapes[splitmix64(state) % std::size(kShapes)];
    serve::JobSpec spec;
    spec.problem = row.problem;
    spec.params.particles = row.particles;
    spec.params.dim = row.dim;
    spec.params.max_iter = 3 + static_cast<int>(splitmix64(state) % 8);
    spec.params.seed = splitmix64(state);
    spec.priority = static_cast<int>(splitmix64(state) % 3);
    spec.tenant = static_cast<int>(splitmix64(state) % 4);
    spec.arrival_seconds = static_cast<double>(i) * 2e-6;
    specs.push_back(spec);
  }
  return specs;
}

Result solo_run(const serve::JobSpec& spec) {
  vgpu::Device device;
  const auto problem = problems::make_problem(spec.problem);
  Optimizer optimizer(device, spec.params);
  return optimizer.optimize(
      objective_from_problem(*problem, spec.params.dim));
}

TEST(MultiDeviceServe, HundredJobStressAcrossFourDevicesMatchesSolo) {
  const auto specs = stress_specs(100, 2026);
  vgpu::comm::DeviceGroup group(4);
  serve::SchedulerOptions options;
  options.streams = 4;
  options.max_active = 8;
  serve::GroupScheduler scheduler(group, options);
  std::vector<int> ids;
  for (const serve::JobSpec& spec : specs) {
    ids.push_back(scheduler.submit(spec));
  }
  scheduler.run();

  const serve::ServeStats stats = scheduler.stats();
  EXPECT_EQ(stats.jobs_submitted, 100u);
  EXPECT_EQ(stats.jobs_completed, 100u);
  // Least-loaded placement over a uniform workload uses every device.
  std::vector<int> per_device(4, 0);
  for (int id : ids) {
    ++per_device[static_cast<std::size_t>(scheduler.device_of(id))];
  }
  for (int device = 0; device < 4; ++device) {
    EXPECT_GT(per_device[static_cast<std::size_t>(device)], 0)
        << "device " << device << " never used";
  }

  // Sampled jobs must match fresh solo reruns bitwise — placement in a
  // 4-device group left no trace in any job's result or accounting.
  std::uint64_t state = 31;
  for (int s = 0; s < 10; ++s) {
    const std::size_t index = splitmix64(state) % specs.size();
    SCOPED_TRACE("sampled job " + std::to_string(index));
    const Result solo = solo_run(specs[index]);
    const Result& served =
        scheduler.outcome_of(ids[index]).result;
    EXPECT_EQ(solo.gbest_value, served.gbest_value);
    EXPECT_EQ(solo.gbest_position, served.gbest_position);
    EXPECT_EQ(solo.gbest_history, served.gbest_history);
    EXPECT_EQ(solo.iterations, served.iterations);
    EXPECT_EQ(solo.modeled_seconds, served.modeled_seconds);
    EXPECT_EQ(solo.counters.flops, served.counters.flops);
    EXPECT_EQ(solo.counters.launches, served.counters.launches);
  }
}

TEST(MultiDeviceServe, PlacementAndTimelineAreDeterministicAcrossRuns) {
  const auto specs = stress_specs(100, 7);
  const auto run_once = [&](std::vector<int>& devices,
                            std::vector<double>& finishes,
                            serve::ServeStats& stats) {
    vgpu::comm::DeviceGroup group(3);
    serve::GroupScheduler scheduler(group);
    std::vector<int> ids;
    for (const serve::JobSpec& spec : specs) {
      ids.push_back(scheduler.submit(spec));
    }
    scheduler.run();
    for (int id : ids) {
      devices.push_back(scheduler.device_of(id));
      finishes.push_back(scheduler.outcome_of(id).finish_seconds);
    }
    stats = scheduler.stats();
  };
  std::vector<int> devices_first, devices_second;
  std::vector<double> finishes_first, finishes_second;
  serve::ServeStats first, second;
  run_once(devices_first, finishes_first, first);
  run_once(devices_second, finishes_second, second);
  EXPECT_EQ(devices_first, devices_second);
  EXPECT_EQ(finishes_first, finishes_second);
  EXPECT_EQ(first.iterations, second.iterations);
  EXPECT_EQ(first.makespan_seconds, second.makespan_seconds);
  EXPECT_EQ(first.serial_seconds, second.serial_seconds);
  // The group makespan is the slowest device; three devices draining
  // concurrently must beat the serial sum.
  EXPECT_LT(first.makespan_seconds, first.serial_seconds);
}

// ---- golden comm trace ---------------------------------------------------

#ifdef FASTPSO_GOLDEN_DIR
// A fixed 2-device tile-matrix run's merged per-device Chrome trace must
// match the checked-in golden byte for byte: one process lane per device
// (pid = device), per-stream rows with the collective "comm" lane, modeled
// timestamps only — machine- and compiler-independent.
//
// Refresh after an intentional change:
//   FASTPSO_REFRESH_GOLDEN=1 ./build/tests/test_multi_gpu
//       --gtest_filter='MultiDeviceGolden.*'
TEST(MultiDeviceGolden, CommTraceMatchesGoldenFile) {
  const bool saved_prof = vgpu::prof::active();
  vgpu::prof::set_enabled(true);
  PsoParams pso;
  pso.particles = 32;
  pso.dim = 8;
  pso.max_iter = 4;
  pso.seed = 42;
  std::unique_ptr<MultiDeviceOptimizer> optimizer;
  (void)multi_run(pso, 2, MultiGpuStrategy::kTileMatrix, "sphere", 10,
                   &optimizer);
  vgpu::prof::set_enabled(saved_prof);

  std::vector<TraceEvent> events;
  for (int device = 0; device < optimizer->group()->size(); ++device) {
    const vgpu::prof::Profile* profile =
        optimizer->group()->device(device).profile();
    ASSERT_NE(profile, nullptr);
    const std::vector<TraceEvent> part = profile->trace_events(device);
    events.insert(events.end(), part.begin(), part.end());
  }
  const std::string json = chrome_trace_json(events);

  const std::string path =
      std::string(FASTPSO_GOLDEN_DIR) + "/comm_trace.json";
  const char* refresh = std::getenv("FASTPSO_REFRESH_GOLDEN");
  if (refresh != nullptr && refresh[0] == '1') {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << json;
    GTEST_SKIP() << "golden refreshed: " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden " << path
      << " — generate with FASTPSO_REFRESH_GOLDEN=1";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(json, golden.str())
      << "multi-device trace diverged from golden; if intentional, refresh "
         "with FASTPSO_REFRESH_GOLDEN=1";
}
#endif  // FASTPSO_GOLDEN_DIR

}  // namespace
}  // namespace fastpso::core
