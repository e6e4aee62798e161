// Unit + property tests for the performance models (vgpu/perf_model.h):
// stride amplification, occupancy curves, roofline behaviour and the CPU
// model. These pin down the *mechanisms* the reproduction relies on.

#include <gtest/gtest.h>

#include "common/check.h"
#include "vgpu/device_spec.h"
#include "vgpu/perf_model.h"

namespace fastpso::vgpu {
namespace {

// ---- stride amplification ------------------------------------------------

TEST(StrideAmplification, UnitStrideIsCoalesced) {
  EXPECT_DOUBLE_EQ(stride_amplification(1, 4), 1.0);
  EXPECT_DOUBLE_EQ(stride_amplification(1, 8), 1.0);
}

TEST(StrideAmplification, LargeStrideCapsAtSectorOverElement) {
  EXPECT_DOUBLE_EQ(stride_amplification(200, 4), 8.0);   // 32B sector / 4B
  EXPECT_DOUBLE_EQ(stride_amplification(1000, 8), 4.0);  // 32B / 8B
}

TEST(StrideAmplification, IntermediateStrides) {
  EXPECT_DOUBLE_EQ(stride_amplification(2, 4), 2.0);
  EXPECT_DOUBLE_EQ(stride_amplification(4, 4), 4.0);
  EXPECT_DOUBLE_EQ(stride_amplification(16, 4), 8.0);  // capped
}

TEST(StrideAmplification, InvalidArgsThrow) {
  EXPECT_THROW((void)stride_amplification(0, 4), fastpso::CheckError);
  EXPECT_THROW((void)stride_amplification(1, 0), fastpso::CheckError);
}

// ---- KernelCostSpec ----------------------------------------------------------

TEST(KernelCostSpec, FetchedBytesApplyAmplification) {
  KernelCostSpec cost;
  cost.dram_read_bytes = 100;
  cost.dram_write_bytes = 50;
  cost.read_amplification = 4.0;
  cost.write_amplification = 2.0;
  EXPECT_DOUBLE_EQ(cost.fetched_read_bytes(), 400.0);
  EXPECT_DOUBLE_EQ(cost.fetched_write_bytes(), 100.0);
  EXPECT_DOUBLE_EQ(cost.fetched_bytes(), 500.0);
}

// ---- GPU model ------------------------------------------------------------------

class GpuModelTest : public ::testing::Test {
 protected:
  GpuPerfModel model_{tesla_v100()};
};

TEST_F(GpuModelTest, OccupancyIsMonotoneInThreads) {
  double prev_c = 0;
  double prev_m = 0;
  for (double threads : {100.0, 1000.0, 10000.0, 100000.0, 1000000.0}) {
    const double c = model_.compute_occupancy(threads);
    const double m = model_.memory_occupancy(threads);
    EXPECT_GE(c, prev_c);
    EXPECT_GE(m, prev_m);
    EXPECT_LE(c, 1.0);
    EXPECT_LE(m, 1.0);
    prev_c = c;
    prev_m = m;
  }
}

TEST_F(GpuModelTest, FullOccupancyAtScale) {
  EXPECT_DOUBLE_EQ(model_.memory_occupancy(1e6), 1.0);
  EXPECT_DOUBLE_EQ(model_.compute_occupancy(1e6), 1.0);
}

TEST_F(GpuModelTest, LowThreadLaunchesAchieveFractionOfBandwidth) {
  // The paper's central mechanism: a 5000-thread (particle-per-thread)
  // launch achieves well under half of the bandwidth of a saturating one.
  const double occ = model_.memory_occupancy(5000);
  EXPECT_GT(occ, 0.2);
  EXPECT_LT(occ, 0.6);
}

TEST_F(GpuModelTest, TimeIsMonotoneInBytes) {
  KernelCostSpec small;
  small.dram_read_bytes = 1e6;
  KernelCostSpec big;
  big.dram_read_bytes = 1e8;
  EXPECT_LT(model_.kernel_seconds(1e6, small),
            model_.kernel_seconds(1e6, big));
}

TEST_F(GpuModelTest, TimeIsMonotoneInFlops) {
  KernelCostSpec small;
  small.flops = 1e8;
  KernelCostSpec big;
  big.flops = 1e11;
  EXPECT_LT(model_.kernel_seconds(1e6, small),
            model_.kernel_seconds(1e6, big));
}

TEST_F(GpuModelTest, MoreThreadsNeverSlower) {
  KernelCostSpec cost;
  cost.dram_read_bytes = 1e8;
  cost.flops = 1e9;
  EXPECT_GE(model_.kernel_seconds(5000, cost),
            model_.kernel_seconds(500000, cost));
}

TEST_F(GpuModelTest, LaunchOverheadIsTheFloor) {
  const double empty = model_.kernel_seconds(1, KernelCostSpec{});
  EXPECT_GE(empty, tesla_v100().launch_overhead_us * 1e-6);
}

TEST_F(GpuModelTest, BarriersAddCost) {
  KernelCostSpec no_sync;
  KernelCostSpec with_sync = no_sync;
  with_sync.barriers = 8;
  EXPECT_GT(model_.kernel_seconds(1000, with_sync),
            model_.kernel_seconds(1000, no_sync));
}

TEST_F(GpuModelTest, TensorCoresSpeedUpComputeBoundKernels) {
  KernelCostSpec cost;
  cost.flops = 1e12;  // strongly compute-bound
  KernelCostSpec tensor = cost;
  tensor.uses_tensor_cores = true;
  EXPECT_GT(model_.kernel_seconds(1e6, cost),
            model_.kernel_seconds(1e6, tensor));
}

TEST_F(GpuModelTest, TensorCoresDoNotHelpMemoryBoundKernels) {
  // Figure 6's observation: the swarm update is memory-bound, so the
  // tensor-core variant lands within a few percent.
  KernelCostSpec cost;
  cost.flops = 1e7;
  cost.dram_read_bytes = 1e8;
  KernelCostSpec tensor = cost;
  tensor.uses_tensor_cores = true;
  const double plain = model_.kernel_seconds(1e6, cost);
  const double tc = model_.kernel_seconds(1e6, tensor);
  EXPECT_NEAR(tc / plain, 1.0, 0.05);
}

TEST_F(GpuModelTest, TranscendentalsCostMoreThanFlops) {
  KernelCostSpec flops_only;
  flops_only.flops = 1e10;
  KernelCostSpec sfu;
  sfu.transcendentals = 1e10;
  EXPECT_GT(model_.kernel_seconds(1e6, sfu),
            model_.kernel_seconds(1e6, flops_only));
}

TEST_F(GpuModelTest, TransferTimeScalesWithBytes) {
  EXPECT_LT(model_.transfer_seconds(1e3), model_.transfer_seconds(1e8));
  // 1 GB over ~12 GB/s PCIe is on the order of 0.1s.
  EXPECT_NEAR(model_.transfer_seconds(1e9), 1.0 / 12.0, 0.02);
}

// ---- CPU model ----------------------------------------------------------------------

class CpuModelTest : public ::testing::Test {
 protected:
  CpuPerfModel model_{xeon_e5_2640v4()};
};

TEST_F(CpuModelTest, MultiThreadIsFasterForComputeBound) {
  const double seq = model_.region_seconds(1, 1e10, 0, 0);
  const double par = model_.region_seconds(20, 1e10, 0, 0);
  EXPECT_LT(par, seq / 8.0);  // near-linear for pure compute
}

TEST_F(CpuModelTest, MultiThreadGainIsBandwidthLimitedForStreaming) {
  // The paper's fastpso-omp is only ~1.3x over fastpso-seq: streaming
  // kernels only gain the multi/single bandwidth ratio.
  const double seq = model_.region_seconds(1, 0, 0, 1e9);
  const double par = model_.region_seconds(20, 0, 0, 1e9);
  const double gain = seq / par;
  EXPECT_GT(gain, 1.1);
  EXPECT_LT(gain, 2.0);
}

TEST_F(CpuModelTest, RegionOverheadOnlyWhenParallel) {
  EXPECT_DOUBLE_EQ(model_.region_overhead_seconds(1), 0.0);
  EXPECT_GT(model_.region_overhead_seconds(20), 0.0);
}

TEST_F(CpuModelTest, TranscendentalsAreExpensive) {
  EXPECT_GT(model_.region_seconds(1, 0, 1e8, 0),
            model_.region_seconds(1, 1e8, 0, 0));
}

TEST_F(CpuModelTest, ThreadsClampedToCores) {
  EXPECT_DOUBLE_EQ(model_.region_seconds(20, 1e9, 0, 0),
                   model_.region_seconds(1000, 1e9, 0, 0));
}

}  // namespace
}  // namespace fastpso::vgpu
