// Sanitizer audits of the production kernels: every update variant, every
// pipeline step, swept across deliberately awkward (n, d, block) shapes.
// A failure here means a kernel accesses memory it should not, races, or
// performs different work than its KernelCostSpec declares (drift > 2%).
//
// Setting FASTPSO_SAN=1 widens the shape sweep; it changes nothing else.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "benchkit/runner.h"
#include "core/best_update.h"
#include "core/init.h"
#include "core/objective.h"
#include "core/optimizer.h"
#include "core/params.h"
#include "core/swarm_state.h"
#include "core/swarm_update.h"
#include "vgpu/device.h"
#include "vgpu/reduce.h"
#include "vgpu/san/sanitizer.h"

namespace fastpso {
namespace {

namespace san = vgpu::san;

struct Shape {
  int n;
  int d;
};

/// True when FASTPSO_SAN is exactly "1".
bool wide_sweep() {
  const char* e = std::getenv("FASTPSO_SAN");
  return e != nullptr && e[0] == '1' && e[1] == '\0';
}

/// Awkward sizes: prime-ish dims, non-multiples of block/tile sizes.
std::vector<Shape> audit_shapes() {
  std::vector<Shape> shapes = {{33, 7}, {17, 5}};
  if (wide_sweep()) {
    shapes.push_back({100, 13});
    shapes.push_back({65, 33});
    shapes.push_back({7, 3});
    shapes.push_back({129, 17});
  }
  return shapes;
}

/// Runs a short optimization under a recording session and returns the
/// report. `configure` mutates the params for the variant under test.
template <typename Configure>
san::Report audited_run(const Shape& shape, Configure&& configure,
                        const std::string& problem = "sphere") {
  core::PsoParams params;
  params.particles = shape.n;
  params.dim = shape.d;
  params.max_iter = 4;
  configure(params);

  vgpu::Device device;
  core::Optimizer optimizer(device, params);
  const auto prob = benchkit::make_any_problem(problem);
  const auto objective = core::objective_from_problem(*prob, params.dim);

  san::Session session;
  optimizer.optimize(objective);
  return session.finish();
}

void expect_clean(const san::Report& report) {
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_LE(report.max_cost_drift(), 0.02);
  EXPECT_FALSE(report.launches.empty());
}

// ---- full pipelines, all variants ----------------------------------------

TEST(KernelAudit, GlobalMemoryPipeline) {
  for (const Shape& s : audit_shapes()) {
    SCOPED_TRACE("n=" + std::to_string(s.n) + " d=" + std::to_string(s.d));
    expect_clean(audited_run(s, [](core::PsoParams& p) {
      p.technique = core::UpdateTechnique::kGlobalMemory;
    }));
  }
}

TEST(KernelAudit, SharedMemoryPipeline) {
  for (const Shape& s : audit_shapes()) {
    SCOPED_TRACE("n=" + std::to_string(s.n) + " d=" + std::to_string(s.d));
    expect_clean(audited_run(s, [](core::PsoParams& p) {
      p.technique = core::UpdateTechnique::kSharedMemory;
    }));
  }
}

TEST(KernelAudit, TensorCorePipeline) {
  for (const Shape& s : audit_shapes()) {
    SCOPED_TRACE("n=" + std::to_string(s.n) + " d=" + std::to_string(s.d));
    expect_clean(audited_run(s, [](core::PsoParams& p) {
      p.technique = core::UpdateTechnique::kTensorCore;
    }));
  }
}

TEST(KernelAudit, MixedPrecisionTensorPipeline) {
  for (const Shape& s : audit_shapes()) {
    SCOPED_TRACE("n=" + std::to_string(s.n) + " d=" + std::to_string(s.d));
    expect_clean(audited_run(s, [](core::PsoParams& p) {
      p.technique = core::UpdateTechnique::kTensorCore;
      p.mixed_precision = true;
    }));
  }
}

TEST(KernelAudit, RingTopologyPipeline) {
  for (const Shape& s : audit_shapes()) {
    SCOPED_TRACE("n=" + std::to_string(s.n) + " d=" + std::to_string(s.d));
    expect_clean(audited_run(s, [](core::PsoParams& p) {
      p.topology = core::Topology::kRing;
      p.ring_neighbors = 2;
    }));
  }
}

TEST(KernelAudit, AsynchronousPipeline) {
  // The fused kernel is trace-only (its cost model is data-dependent and
  // its gbest buffer is explicitly atomic), but the init kernels it shares
  // with the synchronous path are still fully audited — and the race/OOB
  // checks apply throughout.
  for (const Shape& s : audit_shapes()) {
    SCOPED_TRACE("n=" + std::to_string(s.n) + " d=" + std::to_string(s.d));
    expect_clean(audited_run(s, [](core::PsoParams& p) {
      p.synchronization = core::Synchronization::kAsynchronous;
    }));
  }
}

TEST(KernelAudit, OverlappedInitPipeline) {
  for (const Shape& s : audit_shapes()) {
    SCOPED_TRACE("n=" + std::to_string(s.n) + " d=" + std::to_string(s.d));
    expect_clean(audited_run(s, [](core::PsoParams& p) {
      p.overlap_init = true;
    }));
  }
}

TEST(KernelAudit, NoMemoryCachingPipeline) {
  // Re-allocating the weight matrices every iteration exercises the
  // buffer-refresh path of the registry (pool addresses are reused).
  expect_clean(audited_run(Shape{33, 7}, [](core::PsoParams& p) {
    p.memory_caching = false;
  }));
}

TEST(KernelAudit, TranscendentalProblemPipeline) {
  expect_clean(audited_run(
      Shape{17, 5}, [](core::PsoParams& p) { p.max_iter = 3; }, "griewank"));
}

// ---- direct kernel launches at odd block sizes ---------------------------

class BlockSweep : public ::testing::TestWithParam<int> {};

TEST_P(BlockSweep, UpdateVariantsAuditCleanly) {
  const int block = GetParam();
  for (const Shape& s : audit_shapes()) {
    SCOPED_TRACE("block=" + std::to_string(block) +
                 " n=" + std::to_string(s.n) + " d=" + std::to_string(s.d));
    vgpu::Device device;
    const core::LaunchPolicy policy(device.spec(), block);
    core::SwarmState state(device, s.n, s.d);
    vgpu::DeviceArray<float> l_mat(device,
                                   static_cast<std::size_t>(s.n) * s.d);
    vgpu::DeviceArray<float> g_mat(device,
                                   static_cast<std::size_t>(s.n) * s.d);
    core::PsoParams params;
    params.particles = s.n;
    params.dim = s.d;
    const core::UpdateCoefficients coeff =
        core::make_coefficients(params, -1.0, 1.0);

    san::Session session;
    core::initialize_swarm(device, policy, state, /*seed=*/7, -1.0f, 1.0f,
                           1.0f);
    core::generate_weights(device, policy, state.elements(), /*seed=*/7,
                           /*iter=*/0, l_mat, g_mat);
    for (auto technique : {core::UpdateTechnique::kGlobalMemory,
                           core::UpdateTechnique::kSharedMemory,
                           core::UpdateTechnique::kTensorCore}) {
      core::swarm_update(device, policy, state, l_mat, g_mat, coeff,
                         technique);
    }
    const san::Report& report = session.finish();
    EXPECT_TRUE(report.clean()) << report.summary();
    EXPECT_LE(report.max_cost_drift(), 0.02);
  }
}

INSTANTIATE_TEST_SUITE_P(OddBlocks, BlockSweep,
                         ::testing::Values(32, 96, 256));

TEST(KernelAudit, BestUpdateAndReduceAuditCleanly) {
  vgpu::Device device;
  const core::LaunchPolicy policy(device.spec());
  core::SwarmState state(device, /*particles=*/37, /*dim=*/9);
  core::initialize_swarm(device, policy, state, /*seed=*/3, -5.0f, 5.0f,
                         2.0f);
  // Synthesize an evaluation pass host-side (the eval kernel schema is
  // problem-owned and not under audit here).
  for (int i = 0; i < state.n; ++i) {
    state.perror.data()[i] = static_cast<float>((i * 13) % 37);
  }

  san::Session session;
  core::update_pbest(device, policy, state);
  core::update_gbest(device, state);
  const double total =
      vgpu::reduce_sum(device, state.perror.data(), state.n);
  const san::Report& report = session.finish();
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_LE(report.max_cost_drift(), 0.02);
  EXPECT_GT(total, 0.0);
  EXPECT_EQ(state.gbest_err, 0.0f);  // min of (i*13)%37 is 0 at i=0
}

TEST(KernelAudit, EveryFullyAuditedKernelHasZeroDrift) {
  // Not just within tolerance: the ported kernels' cost specs are exact.
  const san::Report report =
      audited_run(Shape{33, 7}, [](core::PsoParams& p) {
        p.technique = core::UpdateTechnique::kSharedMemory;
      });
  for (const san::LaunchTrace& trace : report.launches) {
    if (trace.audited) {
      EXPECT_EQ(trace.max_drift(), 0.0)
          << trace.kernel << ": declared vs counted differ";
    }
  }
}

}  // namespace
}  // namespace fastpso
