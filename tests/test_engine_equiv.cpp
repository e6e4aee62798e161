// Fast path vs. legacy per-thread path equivalence (DESIGN.md §1).
//
// The host execution fast path (Device::launch_elements' flat index loop,
// batched objective evaluation) is a pure host-speed optimization: it must
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
//     still matches the checked-in golden JSON.

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "benchkit/runner.h"
#include "core/best_update.h"
#include "core/init.h"
#include "core/objective.h"
#include "core/optimizer.h"
#include "core/swarm_update.h"
#include "problems/problem.h"
#include "vgpu/device.h"
#include "vgpu/san/sanitizer.h"

namespace fastpso {
namespace {

using benchkit::Impl;
using benchkit::RunOutcome;
using benchkit::RunSpec;

/// RAII toggle so a failing assertion cannot leave the fast path disabled
/// for the rest of the test binary.
class FastPathGuard {
 public:
  explicit FastPathGuard(bool enabled)
      : saved_(vgpu::fast_path_enabled()) {
    vgpu::set_fast_path_enabled(enabled);
  }
  ~FastPathGuard() { vgpu::set_fast_path_enabled(saved_); }

  FastPathGuard(const FastPathGuard&) = delete;
  FastPathGuard& operator=(const FastPathGuard&) = delete;

 private:
  bool saved_;
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
