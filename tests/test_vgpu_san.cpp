// Mechanics of the vgpu sanitizer (vgpu/san): tracked-buffer recording,
// out-of-bounds handling, race detection and barrier ordering, coverage
// contracts, cost auditing and the deterministic launch trace.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "core/objective.h"
#include "core/optimizer.h"
#include "core/params.h"
#include "problems/problem.h"
#include "vgpu/block.h"
#include "vgpu/device.h"
#include "vgpu/san/sanitizer.h"
#include "vgpu/san/tracked.h"

namespace fastpso::vgpu::san {
namespace {

LaunchConfig shape(std::int64_t grid, int block) {
  LaunchConfig cfg;
  cfg.grid = grid;
  cfg.block = block;
  return cfg;
}

/// An exact cost spec for a kernel reading `r` and writing `w` floats.
KernelCostSpec float_cost(double flops, std::int64_t r, std::int64_t w,
                          int barriers = 0) {
  KernelCostSpec cost;
  cost.flops = flops;
  cost.dram_read_bytes = static_cast<double>(r) * sizeof(float);
  cost.dram_write_bytes = static_cast<double>(w) * sizeof(float);
  cost.barriers = barriers;
  return cost;
}

// ---- tracked buffers outside a session ----------------------------------

TEST(Tracked, PassthroughReadsAndWrites) {
  std::vector<float> data = {1.0f, 2.0f, 3.0f};
  auto t = track(data.data(), data.size(), "data");
  EXPECT_EQ(static_cast<float>(t[1]), 2.0f);
  t[1] = 9.0f;
  EXPECT_EQ(data[1], 9.0f);
  t[2] += 1.0f;
  EXPECT_EQ(data[2], 4.0f);
}

TEST(Tracked, OutOfBoundsThrowsWithoutSession) {
  std::vector<float> data(4, 0.0f);
  auto t = track(data.data(), data.size(), "data");
  EXPECT_THROW(t[4] = 1.0f, fastpso::CheckError);
  EXPECT_THROW(static_cast<void>(static_cast<float>(t[-1])),
               fastpso::CheckError);
}

// ---- out-of-bounds under a session ---------------------------------------

TEST(SanSession, OutOfBoundsIsRecordedAndRedirected) {
  Device device;
  std::vector<float> data(4, 7.0f);
  Session session;
  auto t = track(data.data(), data.size(), "data");
  device.launch(shape(1, 1), float_cost(0, 1, 1),
                [&](const ThreadCtx&) {
                  t[4] = 1.0f;  // write past the end: sunk, not stored
                  const float v = t[7];  // read past the end: zero
                  EXPECT_EQ(v, 0.0f);
                });
  const Report& report = session.finish();
  EXPECT_EQ(report.count(Finding::Kind::kOutOfBounds), 2);
  EXPECT_EQ(data[3], 7.0f);  // neighbours untouched
  EXPECT_EQ(report.findings[0].buffer, "data");
  EXPECT_EQ(report.findings[0].index, 4);
}

// ---- race detection ------------------------------------------------------

TEST(SanSession, WriteWriteRaceBetweenThreads) {
  Device device;
  std::vector<float> out(1, 0.0f);
  Session session;
  auto t = track(out.data(), out.size(), "out");
  KernelScope scope("test/ww");
  device.launch(shape(1, 2), float_cost(0, 0, 1),
                [&](const ThreadCtx& ctx) {
                  t[0] = static_cast<float>(ctx.thread_idx);
                });
  const Report& report = session.finish();
  EXPECT_EQ(report.count(Finding::Kind::kWriteWriteRace), 1);
  EXPECT_EQ(report.findings[0].kernel, "test/ww");
  EXPECT_EQ(report.findings[0].buffer, "out");
}

TEST(SanSession, ReadWriteRaceBetweenThreads) {
  Device device;
  std::vector<float> buf(2, 0.0f);
  Session session;
  auto t = track(buf.data(), buf.size(), "buf");
  device.launch(shape(1, 2), float_cost(0, 1, 1),
                [&](const ThreadCtx& ctx) {
                  if (ctx.thread_idx == 0) {
                    t[0] = 1.0f;
                  } else {
                    const float v = t[0];  // reads thread 0's write: race
                    t[1] = v;
                  }
                });
  const Report& report = session.finish();
  EXPECT_EQ(report.count(Finding::Kind::kReadWriteRace), 1);
}

TEST(SanSession, CrossBlockConflictIsARace) {
  Device device;
  std::vector<float> out(1, 0.0f);
  Session session;
  auto t = track(out.data(), out.size(), "out");
  device.launch_blocks(shape(2, 1), float_cost(0, 0, 1),
                       [&](BlockCtx& blk) {
                         blk.for_each_thread([&](const ThreadCtx&) {
                           t[0] = static_cast<float>(blk.block_idx());
                         });
                       });
  const Report& report = session.finish();
  EXPECT_EQ(report.count(Finding::Kind::kWriteWriteRace), 1);
}

TEST(SanSession, BarrierOrdersCrossThreadAccess) {
  Device device;
  constexpr int kThreads = 4;
  std::vector<float> buf(kThreads, 0.0f);
  Session session;
  auto t = track(buf.data(), buf.size(), "buf");
  float sum = 0.0f;
  device.launch_blocks(
      shape(1, kThreads), float_cost(0, kThreads, kThreads, 1),
      [&](BlockCtx& blk) {
        blk.for_each_thread([&](const ThreadCtx& ctx) {
          t[ctx.thread_idx] = static_cast<float>(ctx.thread_idx);
        });
        blk.sync();
        // Reading another thread's element is ordered by the barrier.
        blk.for_each_thread([&](const ThreadCtx& ctx) {
          const int other = (ctx.thread_idx + 1) % kThreads;
          sum += static_cast<float>(t[other]);
        });
      });
  const Report& report = session.finish();
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_EQ(sum, 6.0f);  // 0 + 1 + 2 + 3
}

TEST(SanSession, MissingBarrierIsARace) {
  Device device;
  constexpr int kThreads = 4;
  std::vector<float> buf(kThreads, 0.0f);
  Session session;
  auto t = track(buf.data(), buf.size(), "buf");
  device.launch_blocks(shape(1, kThreads), float_cost(0, kThreads, kThreads),
                       [&](BlockCtx& blk) {
                         blk.for_each_thread([&](const ThreadCtx& ctx) {
                           t[ctx.thread_idx] =
                               static_cast<float>(ctx.thread_idx);
                         });
                         // no sync(): the next phase reads unordered
                         blk.for_each_thread([&](const ThreadCtx& ctx) {
                           const int other =
                               (ctx.thread_idx + 1) % kThreads;
                           static_cast<void>(static_cast<float>(t[other]));
                         });
                       });
  const Report& report = session.finish();
  EXPECT_GT(report.count(Finding::Kind::kReadWriteRace), 0);
}

TEST(SanSession, AtomicClassSuppressesRaceChecks) {
  Device device;
  std::vector<float> out(1, 0.0f);
  Session session;
  auto t = track(out.data(), out.size(), "out", BufferClass::kAtomic);
  device.launch(shape(1, 4), float_cost(0, 0, 1),
                [&](const ThreadCtx& ctx) {
                  t[0] = static_cast<float>(ctx.thread_idx);
                });
  const Report& report = session.finish();
  EXPECT_EQ(report.count(Finding::Kind::kWriteWriteRace), 0);
}

TEST(SanSession, SharedClassIgnoresCrossBlockConflicts) {
  // Shared memory is per-block storage: the same virtual address written by
  // two blocks is two distinct physical cells.
  Device device;
  std::vector<float> sh(1, 0.0f);
  Session session;
  auto t = track(sh.data(), sh.size(), "sh", BufferClass::kShared);
  device.launch_blocks(shape(2, 1), float_cost(0, 0, 0),
                       [&](BlockCtx& blk) {
                         blk.for_each_thread([&](const ThreadCtx&) {
                           t[0] = static_cast<float>(blk.block_idx());
                         });
                       });
  const Report& report = session.finish();
  EXPECT_TRUE(report.clean()) << report.summary();
}

// The masked race of the fused async pipeline, demonstrated: every
// improving particle writes the whole gbest vector. Serial execution hides
// it; the sanitizer does not. (core/optimizer.cpp declares this buffer
// kAtomic — the serialization a real GPU implements with atomics.)
TEST(SanSession, FusedGbestUpdateWithoutAtomicsIsAMaskedRace) {
  Device device;
  constexpr int kParticles = 4;
  constexpr int kDim = 2;
  std::vector<float> err = {3.0f, 2.0f, 4.0f, 1.0f};
  std::vector<float> pos(kParticles * kDim, 0.5f);
  std::vector<float> gbest(kDim, 0.0f);
  float gbest_err = 10.0f;
  Session session;
  auto t_gb = track(gbest.data(), gbest.size(), "gbest_pos");
  KernelScope scope("test/fused_gbest", AuditMode::kTraceOnly);
  device.launch(shape(1, kParticles), float_cost(0, 0, 0),
                [&](const ThreadCtx& ctx) {
                  const int i = ctx.thread_idx;
                  if (err[i] < gbest_err) {
                    gbest_err = err[i];
                    for (int j = 0; j < kDim; ++j) {
                      t_gb[j] = pos[i * kDim + j];
                    }
                  }
                });
  const Report& report = session.finish();
  EXPECT_EQ(report.count(Finding::Kind::kWriteWriteRace), kDim);
}

// ---- coverage contracts --------------------------------------------------

TEST(SanSession, CoverageGapIsFlagged) {
  Device device;
  std::vector<float> out(8, 0.0f);
  Session session;
  auto t = track(out.data(), out.size(), "out");
  expect_writes_exactly_once(t);
  device.launch(shape(1, 8), float_cost(0, 0, 4),
                [&](const ThreadCtx& ctx) {
                  if (ctx.thread_idx % 2 == 0) {
                    t[ctx.thread_idx] = 1.0f;  // odd elements never written
                  }
                });
  const Report& report = session.finish();
  EXPECT_EQ(report.count(Finding::Kind::kCoverageGap), 1);
  EXPECT_EQ(report.findings[0].index, 1);  // first gap
}

TEST(SanSession, DoubleWriteIsFlagged) {
  Device device;
  std::vector<float> out(4, 0.0f);
  Session session;
  auto t = track(out.data(), out.size(), "out");
  expect_writes_exactly_once(t);
  device.launch(shape(1, 4), float_cost(0, 0, 5),
                [&](const ThreadCtx& ctx) {
                  t[ctx.thread_idx] = 1.0f;
                  if (ctx.thread_idx == 2) {
                    t[2] = 2.0f;  // same thread, same element, twice
                  }
                });
  const Report& report = session.finish();
  EXPECT_EQ(report.count(Finding::Kind::kDoubleWrite), 1);
  EXPECT_EQ(report.findings[0].index, 2);
}

TEST(SanSession, ExactCoverageIsClean) {
  Device device;
  std::vector<float> out(16, 0.0f);
  Session session;
  auto t = track(out.data(), out.size(), "out");
  expect_writes_exactly_once(t);
  device.launch(shape(2, 4), float_cost(0, 0, 16),
                [&](const ThreadCtx& ctx) {
                  for (std::int64_t i = ctx.global_id(); i < 16;
                       i += ctx.grid_stride()) {
                    t[i] = 1.0f;
                  }
                });
  const Report& report = session.finish();
  EXPECT_TRUE(report.clean()) << report.summary();
}

// ---- registered kernels on the faithful engine ----------------------------

template <typename T>
using RawPtr = T*;

/// A defective registered kernel (core/kernels_registry.h contract): it
/// declares that every element of `out` is written exactly once, but every
/// element writes out[0].
struct WriteFirstKernel {
  template <template <typename> class P>
  struct Pack {
    P<float> out;
  };
  using Args = Pack<RawPtr>;
  template <typename A>
  static void element(const A& a, std::int64_t /*i*/) {
    a.out[0] = 1.0f;
  }
  static Pack<Tracked> track(const Args& a, std::int64_t n) {
    const Pack<Tracked> views{
        san::track(a.out, static_cast<std::size_t>(n), "out")};
    expect_writes_exactly_once(views.out);
    return views;
  }
};

TEST(SanSession, LaunchKernelRunsElementThroughDeclaredViews) {
  // launch_kernel's faithful engine must run K::element over the views
  // K::track registers, so the sanitizer audits the body both engines run.
  Device device;
  std::vector<float> out(64, 0.0f);
  Session session;
  device.launch_kernel<WriteFirstKernel>(shape(2, 32), float_cost(0, 0, 64),
                                         64, {out.data()});
  const Report& report = session.finish();
  EXPECT_GE(report.count(Finding::Kind::kDoubleWrite), 1);
  EXPECT_GE(report.count(Finding::Kind::kCoverageGap), 1);
  EXPECT_GE(report.count(Finding::Kind::kWriteWriteRace), 1);
}

// ---- cost audit ----------------------------------------------------------

TEST(SanSession, CostDriftBeyondToleranceIsFlagged) {
  Device device;
  std::vector<float> in(100, 1.0f);
  Session session;
  auto t = track(in.data(), in.size(), "in");
  KernelScope scope("test/drifty");
  // Declares twice the traffic the kernel performs.
  device.launch(shape(1, 1), float_cost(0, 200, 0),
                [&](const ThreadCtx&) {
                  for (int i = 0; i < 100; ++i) {
                    static_cast<void>(static_cast<float>(t[i]));
                  }
                });
  const Report& report = session.finish();
  EXPECT_EQ(report.count(Finding::Kind::kCostDrift), 1);
  EXPECT_GT(report.max_cost_drift(), 0.4);
}

TEST(SanSession, FlopUndercountIsFlagged) {
  Device device;
  Session session;
  KernelScope scope("test/flops");
  KernelCostSpec cost;
  cost.flops = 100.0;
  device.launch(shape(1, 1), cost, [&](const ThreadCtx&) {
    count_flops(50.0);  // kernel does half the declared work
  });
  const Report& report = session.finish();
  EXPECT_EQ(report.count(Finding::Kind::kCostDrift), 1);
}

TEST(SanSession, BarrierDriftIsFlagged) {
  Device device;
  Session session;
  KernelScope scope("test/barriers");
  device.launch_blocks(shape(1, 2), float_cost(0, 0, 0, /*barriers=*/3),
                       [&](BlockCtx& blk) {
                         blk.sync();  // only one of the declared three
                       });
  const Report& report = session.finish();
  EXPECT_EQ(report.count(Finding::Kind::kBarrierDrift), 1);
}

TEST(SanSession, ExactDeclarationIsClean) {
  Device device;
  std::vector<float> in(64, 1.0f);
  std::vector<float> out(64, 0.0f);
  Session session;
  auto ti = track(in.data(), in.size(), "in");
  auto to = track(out.data(), out.size(), "out");
  KernelScope scope("test/exact");
  device.launch(shape(1, 64), float_cost(64, 64, 64),
                [&](const ThreadCtx& ctx) {
                  count_flops(1.0);
                  to[ctx.thread_idx] = 2.0f * ti[ctx.thread_idx];
                });
  const Report& report = session.finish();
  EXPECT_TRUE(report.clean()) << report.summary();
  ASSERT_EQ(report.launches.size(), 1u);
  EXPECT_TRUE(report.launches[0].audited);
  EXPECT_EQ(report.launches[0].max_drift(), 0.0);
}

TEST(SanSession, RepeatedReadsCountOnceUnderPerfectCacheConvention) {
  Device device;
  std::vector<float> row(4, 1.0f);
  Session session;
  auto t = track(row.data(), row.size(), "row");
  KernelScope scope("test/broadcast");
  // 32 threads all read the same 4-element row: unique traffic is 4 floats.
  device.launch(shape(1, 32), float_cost(0, 4, 0),
                [&](const ThreadCtx&) {
                  for (int j = 0; j < 4; ++j) {
                    static_cast<void>(static_cast<float>(t[j]));
                  }
                });
  const Report& report = session.finish();
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(SanSession, UnlabeledLaunchIsTracedButNotAudited) {
  Device device;
  std::vector<float> in(8, 1.0f);
  Session session;
  auto t = track(in.data(), in.size(), "in");
  KernelCostSpec wildly_wrong;
  wildly_wrong.dram_read_bytes = 1e9;
  device.launch(shape(1, 1), wildly_wrong, [&](const ThreadCtx&) {
    static_cast<void>(static_cast<float>(t[0]));
  });
  const Report& report = session.finish();
  EXPECT_TRUE(report.clean()) << report.summary();
  ASSERT_EQ(report.launches.size(), 1u);
  EXPECT_FALSE(report.launches[0].audited);
  EXPECT_EQ(report.launches[0].kernel, "<unnamed>");
}

TEST(SanSession, TraceOnlyModeNeverFlagsDrift) {
  Device device;
  Session session;
  KernelScope scope("test/trace_only", AuditMode::kTraceOnly);
  KernelCostSpec wrong;
  wrong.flops = 1e6;
  device.launch(shape(1, 1), wrong, [](const ThreadCtx&) {});
  const Report& report = session.finish();
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_FALSE(report.launches[0].audited);
}

// ---- trace / JSON --------------------------------------------------------

TEST(SanSession, TraceRecordsShapeAndCosts) {
  Device device;
  std::vector<float> out(8, 0.0f);
  Session session;
  auto t = track(out.data(), out.size(), "out");
  KernelScope scope("test/trace");
  device.launch(shape(2, 4), float_cost(8, 0, 8),
                [&](const ThreadCtx& ctx) {
                  for (std::int64_t i = ctx.global_id(); i < 8;
                       i += ctx.grid_stride()) {
                    count_flops(1.0);
                    t[i] = 1.0f;
                  }
                });
  const Report& report = session.finish();
  ASSERT_EQ(report.launches.size(), 1u);
  const LaunchTrace& trace = report.launches[0];
  EXPECT_EQ(trace.kernel, "test/trace");
  EXPECT_EQ(trace.grid, 2);
  EXPECT_EQ(trace.block, 4);
  EXPECT_EQ(trace.counted.write_bytes, 8 * sizeof(float));
  EXPECT_EQ(trace.counted.flops, 8.0);
}

TEST(SanSession, JsonIsDeterministic) {
  const auto run = [] {
    Device device;
    std::vector<float> out(8, 0.0f);
    Session session;
    auto t = track(out.data(), out.size(), "out");
    KernelScope scope("test/json");
    device.launch(shape(1, 8), float_cost(0, 0, 8),
                  [&](const ThreadCtx& ctx) { t[ctx.thread_idx] = 1.0f; });
    return session.finish().to_json();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"kernel\": \"test/json\""), std::string::npos);
  EXPECT_NE(a.find("\"write_bytes\": 32"), std::string::npos);
}

TEST(SanSession, OnlyOneSessionAtATime) {
  Session session;
  EXPECT_THROW(Session another, fastpso::CheckError);
}

// ---- golden trace --------------------------------------------------------

#ifdef FASTPSO_GOLDEN_DIR
// A fixed tiny pipeline whose launch trace must match the checked-in
// golden byte for byte: catches silent changes to kernel labels, launch
// shapes, declared/counted costs and the JSON encoding itself.
//
// Refresh after an intentional change:
//   FASTPSO_REFRESH_GOLDEN=1 ./build/tests/test_vgpu_san
//       --gtest_filter='SanGolden.*'
TEST(SanGolden, PipelineTraceMatchesGoldenFile) {
  Device device;
  core::PsoParams params;
  params.particles = 8;
  params.dim = 3;
  params.max_iter = 2;
  params.seed = 42;
  core::Optimizer optimizer(device, params);
  const auto problem = problems::make_problem("sphere");
  const auto objective =
      core::objective_from_problem(*problem, params.dim);

  Session session;
  optimizer.optimize(objective);
  const Report& report = session.finish();
  ASSERT_TRUE(report.clean()) << report.summary();
  const std::string json = report.to_json();

  const std::string path =
      std::string(FASTPSO_GOLDEN_DIR) + "/san_trace_sphere_8x3.json";
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
      << "trace diverged from golden; if intentional, refresh with "
         "FASTPSO_REFRESH_GOLDEN=1";
}
#endif  // FASTPSO_GOLDEN_DIR

}  // namespace
}  // namespace fastpso::vgpu::san
