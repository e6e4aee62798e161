// Tests for Step (i): swarm initialization and per-iteration random-weight
// generation (core/init.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <vector>

#include "core/init.h"
#include "core/kernels_registry.h"
#include "core/launch_policy.h"
#include "core/swarm_state.h"
#include "rng/philox.h"
#include "vgpu/device.h"

namespace fastpso::core {
namespace {

class InitTest : public ::testing::Test {
 protected:
  vgpu::Device device_;
  LaunchPolicy policy_{device_.spec()};
};

TEST_F(InitTest, PositionsInDomainVelocitiesInVmax) {
  SwarmState state(device_, 100, 20);
  initialize_swarm(device_, policy_, state, 42, -5.12f, 5.12f, 2.0f);
  for (std::int64_t i = 0; i < state.elements(); ++i) {
    EXPECT_GE(state.positions[i], -5.12f);
    EXPECT_LE(state.positions[i], 5.12f);
    EXPECT_GE(state.velocities[i], -2.0f);
    EXPECT_LE(state.velocities[i], 2.0f);
  }
}

TEST_F(InitTest, PbestStartsAtInfinityAndInitialPositions) {
  SwarmState state(device_, 50, 10);
  initialize_swarm(device_, policy_, state, 7, 0.0f, 1.0f, 0.5f);
  for (int i = 0; i < state.n; ++i) {
    EXPECT_EQ(state.pbest_err[i], std::numeric_limits<float>::infinity());
  }
  for (std::int64_t i = 0; i < state.elements(); ++i) {
    EXPECT_EQ(state.pbest_pos[i], state.positions[i]);
  }
  EXPECT_EQ(state.gbest_err, std::numeric_limits<float>::infinity());
}

TEST_F(InitTest, DeterministicInSeed) {
  SwarmState a(device_, 64, 16);
  SwarmState b(device_, 64, 16);
  initialize_swarm(device_, policy_, a, 123, -1.0f, 1.0f, 0.5f);
  initialize_swarm(device_, policy_, b, 123, -1.0f, 1.0f, 0.5f);
  for (std::int64_t i = 0; i < a.elements(); ++i) {
    EXPECT_EQ(a.positions[i], b.positions[i]);
    EXPECT_EQ(a.velocities[i], b.velocities[i]);
  }
}

TEST_F(InitTest, DifferentSeedsDiffer) {
  SwarmState a(device_, 64, 16);
  SwarmState b(device_, 64, 16);
  initialize_swarm(device_, policy_, a, 1, -1.0f, 1.0f, 0.5f);
  initialize_swarm(device_, policy_, b, 2, -1.0f, 1.0f, 0.5f);
  int equal = 0;
  for (std::int64_t i = 0; i < a.elements(); ++i) {
    equal += a.positions[i] == b.positions[i] ? 1 : 0;
  }
  EXPECT_LT(equal, 10);
}

TEST_F(InitTest, LaunchShapeInvariance) {
  // The same seed gives bit-identical state under a different device
  // (hence different grid shape) — the counter-based RNG guarantee.
  vgpu::Device small(vgpu::test_gpu_small());
  LaunchPolicy small_policy(small.spec(), /*block=*/64);
  SwarmState a(device_, 40, 12);
  SwarmState b(small, 40, 12);
  initialize_swarm(device_, policy_, a, 99, -3.0f, 3.0f, 1.0f);
  initialize_swarm(small, small_policy, b, 99, -3.0f, 3.0f, 1.0f);
  for (std::int64_t i = 0; i < a.elements(); ++i) {
    EXPECT_EQ(a.positions[i], b.positions[i]);
    EXPECT_EQ(a.velocities[i], b.velocities[i]);
  }
}

TEST_F(InitTest, WeightsInUnitIntervalAndIterationDependent) {
  const std::int64_t elements = 1000;
  vgpu::DeviceArray<float> l0(device_, elements);
  vgpu::DeviceArray<float> g0(device_, elements);
  vgpu::DeviceArray<float> l1(device_, elements);
  vgpu::DeviceArray<float> g1(device_, elements);
  generate_weights(device_, policy_, elements, 42, 0, l0, g0);
  generate_weights(device_, policy_, elements, 42, 1, l1, g1);
  int same = 0;
  for (std::int64_t i = 0; i < elements; ++i) {
    EXPECT_GE(l0[i], 0.0f);
    EXPECT_LT(l0[i], 1.0f);
    EXPECT_GE(g0[i], 0.0f);
    EXPECT_LT(g0[i], 1.0f);
    same += l0[i] == l1[i] ? 1 : 0;
  }
  EXPECT_LT(same, 5);  // iterations draw from distinct streams
}

TEST_F(InitTest, LAndGAreDistinctStreams) {
  const std::int64_t elements = 1000;
  vgpu::DeviceArray<float> l(device_, elements);
  vgpu::DeviceArray<float> g(device_, elements);
  generate_weights(device_, policy_, elements, 42, 0, l, g);
  int same = 0;
  for (std::int64_t i = 0; i < elements; ++i) {
    same += l[i] == g[i] ? 1 : 0;
  }
  EXPECT_LT(same, 5);
}

TEST_F(InitTest, InitAccountsDeviceWork) {
  device_.reset_counters();
  device_.set_phase("init");
  SwarmState state(device_, 1000, 50);
  initialize_swarm(device_, policy_, state, 5, -1.0f, 1.0f, 1.0f);
  EXPECT_GT(device_.counters().launches, 0u);
  EXPECT_GT(device_.modeled_breakdown().get("init"), 0.0);
  // Position + velocity fills write at least 2*n*d floats.
  EXPECT_GE(device_.counters().dram_write_useful,
            2.0 * state.elements() * sizeof(float));
}

// ---- fill kernel spans vs. the reference element() ----------------------

constexpr float kFillLo = -2.5f;
constexpr float kFillSpan = 5.0f;
constexpr float kUnwritten = 99.0f;

/// Bitwise check of out[0, count) against lo + span * uniform_at(offset + k).
void expect_fill_exact(const rng::PhiloxStream& rng,
                       const std::vector<float>& out, std::int64_t offset,
                       std::int64_t count) {
  for (std::int64_t k = 0; k < count; ++k) {
    const float want =
        kFillLo + kFillSpan * rng.uniform_at(static_cast<std::uint64_t>(
                                  offset + k));
    ASSERT_EQ(std::bit_cast<std::uint32_t>(out[static_cast<std::size_t>(k)]),
              std::bit_cast<std::uint32_t>(want))
        << "offset " << offset << ", count " << count << ", value " << k;
  }
  for (std::size_t k = static_cast<std::size_t>(count); k < out.size(); ++k) {
    EXPECT_EQ(out[k], kUnwritten);
  }
}

/// Runs `kernel`'s span over [0, blocks) split into `parts` contiguous
/// ranges, the way the packing engine hands a member's elements to packed
/// blocks.
template <typename K>
void run_span_in_parts(const typename K::Args& args, std::int64_t blocks,
                       std::int64_t parts) {
  const std::int64_t per_part = std::max<std::int64_t>(
      1, (blocks + parts - 1) / parts);
  for (std::int64_t b = 0; b < blocks; b += per_part) {
    K::span(&args, b, std::min(blocks, b + per_part));
  }
}

// The span fills whole blocks eight at a time and clamps the tail block
// through element(): block counts around one eight-block step, every
// element tail (0-3 floats short of a whole block), and sub-ranges.
TEST(FillKernelSpan, WholeArrayMatchesUniformAt) {
  const rng::PhiloxStream rng(31, 4);
  for (const std::int64_t blocks : {0, 1, 7, 8, 9, 33}) {
    for (std::int64_t tail = 0; tail < 4; ++tail) {
      const std::int64_t elements = std::max<std::int64_t>(
          0, 4 * blocks - tail);
      if ((elements + 3) / 4 != blocks) {
        continue;
      }
      for (const std::int64_t parts : {1, 2, 3, 5}) {
        std::vector<float> out(static_cast<std::size_t>(elements + 5),
                               kUnwritten);
        const kernels::FillUniformKernel::Args args{rng, out.data(), elements,
                                                    kFillLo, kFillSpan};
        run_span_in_parts<kernels::FillUniformKernel>(args, blocks, parts);
        expect_fill_exact(rng, out, 0, elements);
      }
    }
  }
}

// The slice form fills global elements [offset, offset+count) into a small
// buffer: boundary blocks run element(), interior blocks the bulk fill.
TEST(FillKernelSpan, SliceMatchesUniformAt) {
  const rng::PhiloxStream rng(31, 4);
  for (const std::int64_t offset : {0, 1, 2, 3, 4, 37}) {
    for (const std::int64_t count : {1, 2, 3, 5, 31, 32, 33, 70}) {
      const std::int64_t first = offset / 4;
      const std::int64_t blocks = (offset + count - 1) / 4 - first + 1;
      for (const std::int64_t parts : {1, 3}) {
        std::vector<float> out(static_cast<std::size_t>(count + 5),
                               kUnwritten);
        const kernels::FillUniformSliceKernel::Args args{
            rng, out.data(), offset, count, kFillLo, kFillSpan};
        run_span_in_parts<kernels::FillUniformSliceKernel>(args, blocks,
                                                           parts);
        expect_fill_exact(rng, out, offset, count);
      }
    }
  }
}

// A slice that starts three blocks below the 2^32 block-counter carry: the
// first eight-block step straddles it. Runs through the real sharded fill
// entry point, whose fast path is the span.
TEST_F(InitTest, SliceFillAcrossCounterCarry) {
  const std::int64_t offset = 4 * ((std::int64_t{1} << 32) - 3) + 1;
  const std::int64_t count = 70;
  vgpu::DeviceArray<float> out(device_, count + 5);
  std::fill(out.data(), out.data() + count + 5, kUnwritten);
  fill_uniform_slice(device_, policy_, out.data(), offset, count, /*seed=*/31,
                     /*stream=*/4, kFillLo, kFillLo + kFillSpan);
  std::vector<float> host(out.data(), out.data() + count + 5);
  expect_fill_exact(rng::PhiloxStream(31, 4), host, offset, count);
}

}  // namespace
}  // namespace fastpso::core
