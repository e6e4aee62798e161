// Unit tests for the virtual GPU device: memory management, transfers,
// launch semantics, counters and phase accounting.

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <vector>

#include "common/check.h"
#include "vgpu/buffer.h"
#include "vgpu/device.h"
#include "vgpu/memory_pool.h"

namespace fastpso::vgpu {
namespace {

// ---- memory ------------------------------------------------------------

TEST(Device, AllocFreeTracksBytes) {
  Device device(test_gpu_small());
  void* p = device.raw_alloc(1024);
  EXPECT_EQ(device.bytes_in_use(), 1024u);
  EXPECT_EQ(device.live_allocations(), 1u);
  device.raw_free(p);
  EXPECT_EQ(device.bytes_in_use(), 0u);
  EXPECT_EQ(device.live_allocations(), 0u);
}

TEST(Device, OutOfMemoryThrows) {
  Device device(test_gpu_small());  // 8 MiB capacity
  EXPECT_THROW(device.raw_alloc(9u << 20), CheckError);
}

TEST(Device, CapacityRecoversAfterFree) {
  Device device(test_gpu_small());
  void* p = device.raw_alloc(6u << 20);
  EXPECT_THROW(device.raw_alloc(4u << 20), CheckError);
  device.raw_free(p);
  EXPECT_NO_THROW(p = device.raw_alloc(4u << 20));
  device.raw_free(p);
}

TEST(Device, DoubleFreeThrows) {
  Device device(test_gpu_small());
  void* p = device.raw_alloc(64);
  device.raw_free(p);
  EXPECT_THROW(device.raw_free(p), CheckError);
}

TEST(Device, ZeroByteAllocThrows) {
  Device device(test_gpu_small());
  EXPECT_THROW(device.raw_alloc(0), CheckError);
}

TEST(Device, AllocationsHaveModeledCost) {
  Device device(test_gpu_small());
  const double before = device.modeled_seconds();
  void* p = device.raw_alloc(64);
  EXPECT_GT(device.modeled_seconds(), before);
  device.raw_free(p);
  EXPECT_EQ(device.counters().allocs, 1u);
  EXPECT_EQ(device.counters().frees, 1u);
}

// ---- transfers -----------------------------------------------------------

TEST(Device, TransfersCopyAndCount) {
  Device device(test_gpu_small());
  std::vector<float> host = {1, 2, 3, 4};
  auto* dev_mem = static_cast<float*>(device.raw_alloc(4 * sizeof(float)));
  device.memcpy_h2d(dev_mem, host.data(), 4 * sizeof(float));
  std::vector<float> back(4, 0.0f);
  device.memcpy_d2h(back.data(), dev_mem, 4 * sizeof(float));
  EXPECT_EQ(back, host);
  EXPECT_EQ(device.counters().transfers, 2u);
  EXPECT_DOUBLE_EQ(device.counters().h2d_bytes, 16.0);
  EXPECT_DOUBLE_EQ(device.counters().d2h_bytes, 16.0);
  device.raw_free(dev_mem);
}

TEST(Device, DeviceToDeviceCopy) {
  Device device(test_gpu_small());
  auto* a = static_cast<float*>(device.raw_alloc(4 * sizeof(float)));
  auto* b = static_cast<float*>(device.raw_alloc(4 * sizeof(float)));
  for (int i = 0; i < 4; ++i) {
    a[i] = static_cast<float>(i);
  }
  const double before = device.modeled_seconds();
  device.memcpy_d2d(b, a, 4 * sizeof(float));
  for (int i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(b[i], static_cast<float>(i));
  }
  EXPECT_GT(device.modeled_seconds(), before);
  // Stays on the device: no PCIe byte counters.
  EXPECT_DOUBLE_EQ(device.counters().h2d_bytes, 0.0);
  EXPECT_DOUBLE_EQ(device.counters().d2h_bytes, 0.0);
  EXPECT_GT(device.counters().dram_write_fetched, 0.0);
  device.raw_free(a);
  device.raw_free(b);
}

// ---- launch ------------------------------------------------------------------

TEST(Device, LaunchVisitsEveryThreadExactlyOnce) {
  Device device(test_gpu_small());
  LaunchConfig cfg;
  cfg.grid = 7;
  cfg.block = 32;
  std::vector<int> visits(cfg.total_threads(), 0);
  device.launch(cfg, KernelCostSpec{}, [&](const ThreadCtx& t) {
    ++visits[t.global_id()];
  });
  for (int v : visits) {
    EXPECT_EQ(v, 1);
  }
}

TEST(Device, ThreadCtxGeometry) {
  Device device(test_gpu_small());
  LaunchConfig cfg;
  cfg.grid = 3;
  cfg.block = 4;
  std::set<std::int64_t> ids;
  device.launch(cfg, KernelCostSpec{}, [&](const ThreadCtx& t) {
    EXPECT_EQ(t.grid_stride(), 12);
    EXPECT_EQ(t.block_dim, 4);
    EXPECT_EQ(t.grid_dim, 3);
    ids.insert(t.global_id());
  });
  EXPECT_EQ(ids.size(), 12u);
  EXPECT_EQ(*ids.begin(), 0);
  EXPECT_EQ(*ids.rbegin(), 11);
}

TEST(Device, GridStrideLoopCoversArbitrarySizes) {
  Device device(test_gpu_small());
  for (std::int64_t n : {1, 31, 32, 33, 1000, 4097}) {
    LaunchConfig cfg = LaunchConfig::for_elements(device.spec(), n, 32,
                                                  /*max_blocks=*/8);
    std::vector<int> hits(n, 0);
    device.launch(cfg, KernelCostSpec{}, [&](const ThreadCtx& t) {
      for (std::int64_t i = t.global_id(); i < n; i += t.grid_stride()) {
        ++hits[i];
      }
    });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0LL), n)
        << "n=" << n;
    EXPECT_EQ(*std::min_element(hits.begin(), hits.end()), 1) << "n=" << n;
    EXPECT_EQ(*std::max_element(hits.begin(), hits.end()), 1) << "n=" << n;
  }
}

TEST(Device, BlockSizeBeyondDeviceLimitRejected) {
  Device device(test_gpu_small());  // max 128 threads/block
  LaunchConfig cfg;
  cfg.grid = 1;
  cfg.block = 256;
  EXPECT_THROW(device.launch(cfg, KernelCostSpec{}, [](const ThreadCtx&) {}),
               CheckError);
}

TEST(LaunchConfig, ForElementsCapsGrid) {
  const GpuSpec spec = test_gpu_small();
  const auto cfg = LaunchConfig::for_elements(spec, 1'000'000, 128, 100);
  EXPECT_EQ(cfg.grid, 100);
  EXPECT_EQ(cfg.block, 128);
  const auto small = LaunchConfig::for_elements(spec, 5, 128, 100);
  EXPECT_EQ(small.grid, 1);
}

// ---- counters & phases --------------------------------------------------------

TEST(Device, LaunchAccumulatesCosts) {
  Device device;
  LaunchConfig cfg;
  cfg.grid = 2;
  cfg.block = 64;
  KernelCostSpec cost;
  cost.flops = 1000;
  cost.transcendentals = 10;
  cost.dram_read_bytes = 4096;
  cost.dram_write_bytes = 2048;
  cost.read_amplification = 2.0;
  device.launch(cfg, cost, [](const ThreadCtx&) {});
  const auto& counters = device.counters();
  EXPECT_EQ(counters.launches, 1u);
  EXPECT_DOUBLE_EQ(counters.flops, 1000.0);
  EXPECT_DOUBLE_EQ(counters.transcendentals, 10.0);
  EXPECT_DOUBLE_EQ(counters.dram_read_useful, 4096.0);
  EXPECT_DOUBLE_EQ(counters.dram_read_fetched, 8192.0);
  EXPECT_DOUBLE_EQ(counters.dram_write_fetched, 2048.0);
  EXPECT_GT(counters.modeled_seconds, 0.0);
}

TEST(Device, PhasesSplitModeledTime) {
  Device device;
  LaunchConfig cfg;
  cfg.grid = 1;
  cfg.block = 32;
  device.set_phase("alpha");
  device.launch(cfg, KernelCostSpec{}, [](const ThreadCtx&) {});
  device.set_phase("beta");
  device.launch(cfg, KernelCostSpec{}, [](const ThreadCtx&) {});
  device.launch(cfg, KernelCostSpec{}, [](const ThreadCtx&) {});
  const auto& breakdown = device.modeled_breakdown();
  EXPECT_GT(breakdown.get("alpha"), 0.0);
  EXPECT_GT(breakdown.get("beta"), breakdown.get("alpha"));
  EXPECT_DOUBLE_EQ(breakdown.total(), device.modeled_seconds());
}

TEST(Device, ResetCountersClearsEverything) {
  Device device;
  LaunchConfig cfg;
  cfg.grid = 1;
  cfg.block = 32;
  device.launch(cfg, KernelCostSpec{}, [](const ThreadCtx&) {});
  device.reset_counters();
  EXPECT_EQ(device.counters().launches, 0u);
  EXPECT_DOUBLE_EQ(device.modeled_seconds(), 0.0);
  EXPECT_TRUE(device.modeled_breakdown().buckets().empty());
}

TEST(Device, BoundAccountingTakesEveryUpdate) {
  Device device;
  LaunchConfig cfg;
  cfg.grid = 1;
  cfg.block = 32;
  device.set_phase("alpha");
  device.launch(cfg, KernelCostSpec{}, [](const ThreadCtx&) {});
  const DeviceCounters own = device.counters();
  const auto own_buckets = device.modeled_breakdown().buckets();

  DeviceCounters counters;
  TimeBreakdown breakdown;
  device.bind_accounting(counters, breakdown);
  EXPECT_THROW(device.bind_accounting(counters, breakdown), CheckError);
  device.launch(cfg, KernelCostSpec{}, [](const ThreadCtx&) {});
  void* p = device.raw_alloc(64);
  EXPECT_EQ(&device.counters(), &counters);
  EXPECT_EQ(&device.modeled_breakdown(), &breakdown);
  EXPECT_EQ(counters.launches, 1u);
  EXPECT_EQ(counters.allocs, 1u);
  EXPECT_GT(counters.modeled_seconds, 0.0);
  EXPECT_EQ(breakdown.get("alpha"), counters.modeled_seconds);

  device.unbind_accounting();
  EXPECT_THROW(device.unbind_accounting(), CheckError);
  EXPECT_EQ(device.counters().launches, own.launches);
  EXPECT_EQ(device.counters().allocs, own.allocs);
  EXPECT_EQ(device.counters().modeled_seconds, own.modeled_seconds);
  EXPECT_EQ(device.counters().kernel_seconds, own.kernel_seconds);
  EXPECT_EQ(device.modeled_breakdown().buckets(), own_buckets);
  device.raw_free(p);
}

TEST(Device, BindingRejectsOpenCapture) {
  Device device;
  DeviceCounters counters;
  TimeBreakdown breakdown;
  graph::Graph g;
  device.begin_capture(g);
  EXPECT_THROW(device.bind_accounting(counters, breakdown), CheckError);
  device.end_capture();
  device.bind_accounting(counters, breakdown);
  device.begin_capture(g);
  EXPECT_THROW(device.unbind_accounting(), CheckError);
  device.end_capture();
  device.unbind_accounting();
}

TEST(Device, HostSecondsInjection) {
  Device device;
  device.set_phase("cpu");
  device.add_modeled_host_seconds(1.5);
  EXPECT_DOUBLE_EQ(device.modeled_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(device.modeled_breakdown().get("cpu"), 1.5);
  EXPECT_THROW(device.add_modeled_host_seconds(-1.0), CheckError);
}

// ---- DeviceArray ------------------------------------------------------------------

TEST(DeviceArray, RoundTripUploadDownload) {
  Device device;
  DeviceArray<float> array(device, 8);
  std::vector<float> host(8);
  std::iota(host.begin(), host.end(), 0.0f);
  array.upload(host);
  std::vector<float> back(8, -1.0f);
  array.download(back);
  EXPECT_EQ(back, host);
}

TEST(DeviceArray, MoveTransfersOwnership) {
  Device device;
  DeviceArray<float> a(device, 4);
  a[0] = 42.0f;
  DeviceArray<float> b = std::move(a);
  EXPECT_EQ(b.size(), 4u);
  EXPECT_FLOAT_EQ(b[0], 42.0f);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(DeviceArray, ResetReleasesToPool) {
  Device device;
  DeviceArray<float> a(device, 16);
  a.reset();
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(device.pool().outstanding(), 0u);
}

}  // namespace
}  // namespace fastpso::vgpu
