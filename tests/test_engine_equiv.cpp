// Fast path vs. legacy per-thread path equivalence (DESIGN.md §1).
//
// The host execution fast path (Device::launch_kernel's span loop, batched
// objective evaluation) is a pure host-speed optimization: it must
// change no result bit, no counter, and no modeled second. This suite pins
// that contract:
//
//   * kernel level — init / weights / swarm update (global + ring) produce
//     bitwise-identical positions and velocities and identical
//     DeviceCounters with the toggle on and off; the shared-memory update's
//     flat fast path matches its block engine (counters and barriers
//     included) and the global-memory update bit for bit;
//   * optimizer level — full runs on all four Table 1 problems through every
//     implementation agree on gbest value/position/history, counters and
//     modeled seconds;
//   * sanitizer level — a recording Session forces the faithful path, so
//     the launch trace is byte-identical regardless of the toggle, and
//     still matches the checked-in golden JSON;
//   * host fan-out — vgpu::parallel_for covers every index exactly once and
//     rethrows a range's exception on the caller, and runs large enough to
//     split (past 2 * kHostGrain) match the faithful engine and a
//     one-worker fast path on every buffer, counter and modeled second.

#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchkit/runner.h"
#include "common/check.h"
#include "core/best_update.h"
#include "core/init.h"
#include "core/job_run.h"
#include "core/objective.h"
#include "core/optimizer.h"
#include "core/swarm_update.h"
#include "problems/problem.h"
#include "problems/transforms.h"
#include "switch_guards.h"
#include "vgpu/device.h"
#include "vgpu/parallel.h"
#include "vgpu/san/sanitizer.h"

namespace fastpso {
namespace {

using benchkit::Impl;
using benchkit::RunOutcome;
using benchkit::RunSpec;

/// Sets the host worker count (the OpenMP team size vgpu::parallel_for
/// splits over) for one scope and restores it after.
class HostWorkers {
 public:
  explicit HostWorkers(int workers) : saved_(omp_get_max_threads()) {
    omp_set_num_threads(workers);
  }
  ~HostWorkers() { omp_set_num_threads(saved_); }

  HostWorkers(const HostWorkers&) = delete;
  HostWorkers& operator=(const HostWorkers&) = delete;

 private:
  int saved_;
};

/// Bitwise equality for float vectors (NaN-safe, distinguishes -0.0f).
bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

void expect_counters_equal(const vgpu::DeviceCounters& a,
                           const vgpu::DeviceCounters& b) {
  EXPECT_EQ(a.allocs, b.allocs);
  EXPECT_EQ(a.frees, b.frees);
  EXPECT_EQ(a.launches, b.launches);
  EXPECT_EQ(a.transfers, b.transfers);
  EXPECT_EQ(a.barriers, b.barriers);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.transcendentals, b.transcendentals);
  EXPECT_EQ(a.dram_read_useful, b.dram_read_useful);
  EXPECT_EQ(a.dram_write_useful, b.dram_write_useful);
  EXPECT_EQ(a.dram_read_fetched, b.dram_read_fetched);
  EXPECT_EQ(a.dram_write_fetched, b.dram_write_fetched);
  EXPECT_EQ(a.h2d_bytes, b.h2d_bytes);
  EXPECT_EQ(a.d2h_bytes, b.d2h_bytes);
  EXPECT_EQ(a.modeled_seconds, b.modeled_seconds);
  EXPECT_EQ(a.kernel_seconds, b.kernel_seconds);
}

// ---- kernel level --------------------------------------------------------

struct KernelRun {
  std::vector<float> positions;
  std::vector<float> velocities;
  std::vector<float> gbest_pos;
  float gbest_err = 0;
  vgpu::DeviceCounters counters;
};

struct PipelineShape {
  int n = 24;
  int d = 7;
  std::int64_t thread_cap = 0;  ///< LaunchPolicy override; 0 = derived
  core::UpdateTechnique technique = core::UpdateTechnique::kGlobalMemory;
};

/// A short pipeline over the raw step kernels: init, two iterations of
/// weights + pbest/gbest + swarm update, then one ring update.
KernelRun run_kernels(bool fast, const PipelineShape& shape = {}) {
  const FastPathGuard guard(fast);
  const int n = shape.n;
  const int d = shape.d;
  vgpu::Device device;
  core::LaunchPolicy policy(device.spec(), /*block=*/256, shape.thread_cap);
  core::SwarmState state(device, n, d);
  core::initialize_swarm(device, policy, state, /*seed=*/7, -3.0f, 3.0f,
                         /*vmax=*/1.5f);
  vgpu::DeviceArray<float> l_mat(device, state.elements());
  vgpu::DeviceArray<float> g_mat(device, state.elements());
  core::UpdateCoefficients coeff{};
  coeff.omega = 0.72f;
  coeff.c1 = 1.49f;
  coeff.c2 = 1.49f;
  coeff.vmax = 1.5f;
  coeff.pos_lower = -3.0f;
  coeff.pos_upper = 3.0f;
  coeff.clamp_position = true;

  const auto problem = problems::make_problem("griewank");
  for (int iter = 0; iter < 2; ++iter) {
    core::generate_weights(device, policy, state.elements(), /*seed=*/7, iter,
                           l_mat, g_mat);
    problem->eval_batch(state.positions.data(), n, d, state.perror.data());
    core::update_pbest(device, policy, state);
    core::update_gbest(device, state);
    core::swarm_update(device, policy, state, l_mat, g_mat, coeff,
                       shape.technique);
  }
  std::vector<std::int32_t> ring(n);
  for (int i = 0; i < n; ++i) {
    ring[i] = (i + 1) % n;
  }
  core::swarm_update_ring(device, policy, state, l_mat, g_mat, coeff,
                          ring.data());

  KernelRun out;
  out.positions.resize(static_cast<std::size_t>(state.elements()));
  out.velocities.resize(static_cast<std::size_t>(state.elements()));
  out.gbest_pos.resize(d);
  state.positions.download(out.positions);
  state.velocities.download(out.velocities);
  state.gbest_pos.download(out.gbest_pos);
  out.gbest_err = state.gbest_err;
  out.counters = device.counters();
  return out;
}

TEST(EngineEquiv, KernelStateBitwiseIdentical) {
  const KernelRun fast = run_kernels(true);
  const KernelRun legacy = run_kernels(false);
  EXPECT_TRUE(bits_equal(fast.positions, legacy.positions));
  EXPECT_TRUE(bits_equal(fast.velocities, legacy.velocities));
  EXPECT_TRUE(bits_equal(fast.gbest_pos, legacy.gbest_pos));
  EXPECT_EQ(fast.gbest_err, legacy.gbest_err);
  expect_counters_equal(fast.counters, legacy.counters);
}

// The shared-memory update runs as flat row segments on the fast path and
// as staged tiles on the block engine. 40x37 under 16x16 tiles leaves
// partial tiles in both dimensions, and a thread cap of 1024 spreads the
// nine tiles over four blocks, so the busiest block makes three trips.
TEST(EngineEquiv, SharedMemoryFastPathMatchesBlockEngineAndGlobal) {
  PipelineShape shape;
  shape.n = 40;
  shape.d = 37;
  shape.thread_cap = 1024;
  shape.technique = core::UpdateTechnique::kSharedMemory;
  const KernelRun flat = run_kernels(true, shape);
  const KernelRun tiled = run_kernels(false, shape);
  shape.technique = core::UpdateTechnique::kGlobalMemory;
  const KernelRun global = run_kernels(true, shape);

  EXPECT_TRUE(bits_equal(flat.positions, tiled.positions));
  EXPECT_TRUE(bits_equal(flat.velocities, tiled.velocities));
  EXPECT_TRUE(bits_equal(flat.positions, global.positions));
  EXPECT_TRUE(bits_equal(flat.velocities, global.velocities));
  EXPECT_TRUE(bits_equal(flat.gbest_pos, global.gbest_pos));
  EXPECT_EQ(flat.gbest_err, global.gbest_err);
  // Counters include the tiles' __syncthreads (two per trip), which the
  // flat path accounts without executing any.
  expect_counters_equal(flat.counters, tiled.counters);
  EXPECT_GT(flat.counters.barriers, global.counters.barriers);
}

// ---- optimizer level: all four Table 1 problems, every implementation ----

RunOutcome run_cell(Impl impl, const std::string& problem, bool fast) {
  const FastPathGuard guard(fast);
  RunSpec spec;
  spec.impl = impl;
  spec.problem = problem;
  spec.particles = 20;
  spec.dim = 6;
  spec.iters = 12;
  spec.executed_iters = 6;
  spec.seed = 42;
  return benchkit::run_spec(spec);
}

TEST(EngineEquiv, Table1RunsIdenticalAcrossPaths) {
  const std::vector<std::string> problems = {"sphere", "griewank", "easom",
                                             "threadconf"};
  for (const std::string& problem : problems) {
    for (Impl impl : benchkit::all_impls()) {
      SCOPED_TRACE(problem + " / " + benchkit::to_string(impl));
      const RunOutcome fast = run_cell(impl, problem, true);
      const RunOutcome legacy = run_cell(impl, problem, false);
      EXPECT_EQ(fast.result.gbest_value, legacy.result.gbest_value);
      EXPECT_TRUE(bits_equal(fast.result.gbest_position,
                             legacy.result.gbest_position));
      EXPECT_TRUE(bits_equal(fast.result.gbest_history,
                             legacy.result.gbest_history));
      EXPECT_EQ(fast.result.modeled_seconds, legacy.result.modeled_seconds);
      EXPECT_EQ(fast.modeled_seconds_full, legacy.modeled_seconds_full);
      expect_counters_equal(fast.result.counters, legacy.result.counters);
    }
  }
}

// ---- host fan-out: the partition helper -----------------------------------

struct Range {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

/// Runs vgpu::parallel_for over [0, n) and returns its ranges sorted by
/// begin; every index must have been visited exactly once.
std::vector<Range> split_ranges(std::int64_t n, std::int64_t grain) {
  std::vector<std::atomic<int>> visits(static_cast<std::size_t>(n));
  std::mutex mutex;
  std::vector<Range> ranges;
  vgpu::parallel_for(n, grain, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      visits[static_cast<std::size_t>(i)].fetch_add(1,
                                                    std::memory_order_relaxed);
    }
    const std::lock_guard<std::mutex> lock(mutex);
    ranges.push_back({b, e});
  });
  const auto once = std::count_if(
      visits.begin(), visits.end(),
      [](const std::atomic<int>& v) { return v.load() == 1; });
  EXPECT_EQ(once, n) << "indices not visited exactly once";
  std::sort(ranges.begin(), ranges.end(),
            [](const Range& a, const Range& b) { return a.begin < b.begin; });
  return ranges;
}

// Below 2 * grain the launch runs as one inline range; from there on it
// splits into min(workers, n / grain) contiguous ranges of at least grain
// indices. 1,000,003 is prime, so no worker count divides it evenly.
TEST(HostFanOut, VisitsEveryIndexOnceInContiguousRanges) {
  constexpr std::int64_t g = vgpu::kHostGrain;
  for (const int workers : {1, 4}) {
    const HostWorkers guard(workers);
    for (const std::int64_t n :
         {std::int64_t{0}, std::int64_t{1}, 2 * g - 1, 2 * g, 2 * g + 1,
          std::int64_t{1000003}}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " n=" + std::to_string(n));
      const std::vector<Range> ranges = split_ranges(n, g);
      const std::int64_t expected =
          n == 0 ? 0 : (n < 2 * g ? 1 : std::min<std::int64_t>(workers, n / g));
      EXPECT_EQ(static_cast<std::int64_t>(ranges.size()), expected);
      std::int64_t next = 0;
      for (const Range& r : ranges) {
        EXPECT_EQ(r.begin, next);
        EXPECT_GE(r.end - r.begin, std::min(n, g));
        next = r.end;
      }
      EXPECT_EQ(next, n);
    }
  }
}

// A parallel_for issued from inside a split range runs inline: one range
// covering the whole domain, on the thread that called it.
TEST(HostFanOut, NestedCallRunsInline) {
  const HostWorkers guard(4);
  const std::int64_t n = 4 * vgpu::kHostGrain;
  std::atomic<int> outer_ranges{0};
  std::atomic<int> bad_inner{0};
  vgpu::parallel_for(n, vgpu::kHostGrain, [&](std::int64_t, std::int64_t) {
    outer_ranges.fetch_add(1);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> inner_ranges{0};
    vgpu::parallel_for(n, vgpu::kHostGrain,
                       [&](std::int64_t b, std::int64_t e) {
                         inner_ranges.fetch_add(1);
                         if (b != 0 || e != n ||
                             std::this_thread::get_id() != caller) {
                           bad_inner.fetch_add(1);
                         }
                       });
    if (inner_ranges.load() != 1) {
      bad_inner.fetch_add(1);
    }
  });
  EXPECT_EQ(outer_ranges.load(), 4);
  EXPECT_EQ(bad_inner.load(), 0);
}

// An exception thrown inside a split range reaches the caller as itself,
// as it does when the launch runs inline on one worker.
TEST(HostFanOut, RangeExceptionReachesCaller) {
  const std::int64_t n = 4 * vgpu::kHostGrain;
  for (const int workers : {4, 1}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const HostWorkers guard(workers);
    std::atomic<std::int64_t> visited{0};
    EXPECT_THROW(vgpu::parallel_for(n, vgpu::kHostGrain,
                                    [&](std::int64_t b, std::int64_t e) {
                                      visited.fetch_add(e - b);
                                      FASTPSO_CHECK_MSG(e < n,
                                                        "last range throws");
                                    }),
                 CheckError);
    // Every range still ran to its throw point before the rethrow.
    EXPECT_EQ(visited.load(), n);
  }
}

// The same through the optimizer: a rotated problem built for dim 131 and
// evaluated at dim 130 fails its FASTPSO_CHECK in every row, inside a
// batch evaluation large enough to split (1031 rows, 126-row grain). The
// CheckError must reach optimize()'s caller — never std::terminate from a
// worker thread — exactly as with one worker.
TEST(HostFanOut, ObjectiveCheckErrorReachesOptimizeCaller) {
  const problems::RotatedProblem rotated(problems::make_problem("sphere"),
                                         131, /*seed=*/7);
  core::PsoParams params;
  params.particles = 1031;
  params.dim = 130;
  params.max_iter = 2;
  const core::Objective objective =
      core::objective_from_problem(rotated, params.dim);
  for (const int workers : {4, 1}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const HostWorkers guard(workers);
    const FastPathGuard fast(true);
    vgpu::Device device;
    core::Optimizer optimizer(device, params);
    EXPECT_THROW(optimizer.optimize(objective), CheckError);
  }
}

// ---- host fan-out: split shapes, fast path vs faithful vs one worker ------

struct SplitCase {
  int n = 0;
  int d = 0;
  std::string problem;
};

// Keeps the ctest names gtest_discover_tests builds from GetParam() stable
// (the default printer dumps the string's heap pointer).
void PrintTo(const SplitCase& c, std::ostream* os) {
  *os << "n=" << c.n << " d=" << c.d << " " << c.problem;
}

/// Everything a finished JobRun leaves behind: the bytes of every device
/// buffer it owns (positions, velocities, pbest, flags, gbest, ring index,
/// double-buffered weights), plus its Result's history and accounting.
struct JobSnapshot {
  std::vector<std::vector<std::byte>> buffers;
  std::vector<float> gbest_history;
  std::vector<float> gbest_position;
  vgpu::DeviceCounters counters;
  double modeled_seconds = 0;
};

JobSnapshot run_job(const core::PsoParams& params,
                    const core::Objective& objective) {
  vgpu::Device device;
  core::JobRun run(device, params, objective);
  while (!run.done()) {
    run.step();
  }
  JobSnapshot snap;
  for (const auto& [base, bytes] : run.buffer_spans()) {
    const auto* first = static_cast<const std::byte*>(base);
    snap.buffers.emplace_back(first, first + bytes);
  }
  const core::Result result = run.finish();
  snap.gbest_history = result.gbest_history;
  snap.gbest_position = result.gbest_position;
  snap.counters = result.counters;
  snap.modeled_seconds = result.modeled_seconds;
  return snap;
}

void expect_snapshots_equal(const JobSnapshot& a, const JobSnapshot& b) {
  ASSERT_EQ(a.buffers.size(), b.buffers.size());
  for (std::size_t i = 0; i < a.buffers.size(); ++i) {
    EXPECT_TRUE(a.buffers[i] == b.buffers[i]) << "buffer " << i;
  }
  EXPECT_TRUE(bits_equal(a.gbest_history, b.gbest_history));
  EXPECT_TRUE(bits_equal(a.gbest_position, b.gbest_position));
  expect_counters_equal(a.counters, b.counters);
  EXPECT_EQ(a.modeled_seconds, b.modeled_seconds);
}

class SplitEquiv : public ::testing::TestWithParam<SplitCase> {};

// Every configuration runs three ways: the fast path split over four host
// workers, the faithful per-thread engine, and the fast path on one worker.
// All three must leave identical bytes in every buffer and identical
// accounting.
TEST_P(SplitEquiv, FastPathMatchesFaithfulAndOneWorker) {
  const SplitCase& c = GetParam();
  const auto problem = benchkit::make_any_problem(c.problem);
  const core::Objective objective =
      core::objective_from_problem(*problem, c.d);

  core::PsoParams base;
  base.particles = c.n;
  base.dim = c.d;
  base.max_iter = 3;
  base.seed = 11;
  struct Config {
    const char* name;
    core::PsoParams params;
  };
  std::vector<Config> configs(4, Config{"", base});
  configs[0].name = "global";
  configs[1].name = "shared";
  configs[1].params.technique = core::UpdateTechnique::kSharedMemory;
  configs[2].name = "ring";
  configs[2].params.topology = core::Topology::kRing;
  configs[3].name = "overlap_init";
  configs[3].params.overlap_init = true;

  for (const Config& config : configs) {
    SCOPED_TRACE(config.name);
    JobSnapshot split;
    JobSnapshot faithful;
    JobSnapshot one_worker;
    {
      const FastPathGuard fast(true);
      const HostWorkers workers(4);
      split = run_job(config.params, objective);
    }
    {
      const FastPathGuard fast(false);
      faithful = run_job(config.params, objective);
    }
    {
      const FastPathGuard fast(true);
      const HostWorkers workers(1);
      one_worker = run_job(config.params, objective);
    }
    {
      SCOPED_TRACE("split vs faithful");
      expect_snapshots_equal(split, faithful);
    }
    {
      SCOPED_TRACE("split vs one worker");
      expect_snapshots_equal(split, one_worker);
    }
  }
}

// 1031x131 = 135,061 floats: fills of 33,766 Philox blocks with a clamped
// tail block, element ranges that end mid-row, and 1031 rows of
// evaluation, pbest reset and gather over a 125-row grain. 255x128 and
// 257x128 sit just below and just above 2 * kHostGrain elements and 2 *
// 128 rows, so 257x128 splits the row kernels too and 255x128 runs them
// inline. This suite is the bitwise gate for every split.
std::vector<SplitCase> split_cases() {
  std::vector<SplitCase> cases;
  for (const auto& [n, d] : {std::pair{1031, 131}, std::pair{255, 128},
                             std::pair{257, 128}}) {
    for (const char* problem : {"sphere", "griewank", "easom", "threadconf"}) {
      cases.push_back({n, d, problem});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    SplitShapes, SplitEquiv, ::testing::ValuesIn(split_cases()),
    [](const ::testing::TestParamInfo<SplitCase>& case_info) {
      const SplitCase& c = case_info.param;
      return "n" + std::to_string(c.n) + "_d" + std::to_string(c.d) + "_" +
             c.problem;
    });

// ---- sanitizer level -----------------------------------------------------

std::string traced_pipeline_json() {
  vgpu::Device device;
  core::PsoParams params;
  params.particles = 8;
  params.dim = 3;
  params.max_iter = 2;
  params.seed = 42;
  core::Optimizer optimizer(device, params);
  const auto problem = problems::make_problem("sphere");
  const auto objective = core::objective_from_problem(*problem, params.dim);

  vgpu::san::Session session;
  optimizer.optimize(objective);
  const vgpu::san::Report& report = session.finish();
  EXPECT_TRUE(report.clean()) << report.summary();
  return report.to_json();
}

// A recording Session must force the faithful per-thread path: the trace is
// byte-identical whatever the toggle says.
TEST(EngineEquiv, SanitizerTraceIgnoresFastPathToggle) {
  std::string with_fast;
  std::string with_legacy;
  {
    const FastPathGuard guard(true);
    with_fast = traced_pipeline_json();
  }
  {
    const FastPathGuard guard(false);
    with_legacy = traced_pipeline_json();
  }
  EXPECT_EQ(with_fast, with_legacy);
}

#ifdef FASTPSO_GOLDEN_DIR
// With the toggle explicitly on, the recorded trace still matches the
// checked-in golden byte for byte (same fixture as SanGolden in
// test_vgpu_san.cpp; refresh there if the pipeline changes intentionally).
TEST(EngineEquiv, SanitizerTraceMatchesGoldenWithFastPathOn) {
  const FastPathGuard guard(true);
  const std::string json = traced_pipeline_json();
  const std::string path =
      std::string(FASTPSO_GOLDEN_DIR) + "/san_trace_sphere_8x3.json";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(json, golden.str());
}
#endif

}  // namespace
}  // namespace fastpso
