// Tests for Steps (iii) and (iv): pbest/gbest update and the three swarm
// update kernel variants (global / shared / tensor core).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/best_update.h"
#include "core/init.h"
#include "core/launch_policy.h"
#include "core/swarm_state.h"
#include "core/swarm_update.h"
#include "rng/xoshiro.h"
#include "vgpu/device.h"

namespace fastpso::core {
namespace {

// ---- pbest / gbest -------------------------------------------------------

class BestUpdateTest : public ::testing::Test {
 protected:
  vgpu::Device device_;
  LaunchPolicy policy_{device_.spec()};
};

TEST_F(BestUpdateTest, FirstPassImprovesEveryParticle) {
  SwarmState state(device_, 100, 4);
  initialize_swarm(device_, policy_, state, 1, 0.0f, 1.0f, 0.5f);
  for (int i = 0; i < state.n; ++i) {
    state.perror[i] = static_cast<float>(i);
  }
  const PbestStats stats = update_pbest(device_, policy_, state);
  EXPECT_EQ(stats.improved, 100);
  for (int i = 0; i < state.n; ++i) {
    EXPECT_FLOAT_EQ(state.pbest_err[i], static_cast<float>(i));
  }
}

TEST_F(BestUpdateTest, WorseErrorsDoNotOverwrite) {
  SwarmState state(device_, 10, 2);
  initialize_swarm(device_, policy_, state, 1, 0.0f, 1.0f, 0.5f);
  for (int i = 0; i < state.n; ++i) {
    state.perror[i] = 1.0f;
  }
  update_pbest(device_, policy_, state);
  for (int i = 0; i < state.n; ++i) {
    state.perror[i] = 2.0f;  // worse
  }
  const PbestStats stats = update_pbest(device_, policy_, state);
  EXPECT_EQ(stats.improved, 0);
  for (int i = 0; i < state.n; ++i) {
    EXPECT_FLOAT_EQ(state.pbest_err[i], 1.0f);
  }
}

TEST_F(BestUpdateTest, ImprovedParticlesCopyPositions) {
  SwarmState state(device_, 4, 3);
  initialize_swarm(device_, policy_, state, 1, 0.0f, 1.0f, 0.5f);
  state.perror[0] = 1.0f;
  state.perror[1] = 1.0f;
  state.perror[2] = 1.0f;
  state.perror[3] = 1.0f;
  update_pbest(device_, policy_, state);
  // Move particles; only particle 2 improves on the second pass.
  for (std::int64_t i = 0; i < state.elements(); ++i) {
    state.positions[i] = 100.0f + static_cast<float>(i);
  }
  state.perror[0] = 5.0f;
  state.perror[1] = 5.0f;
  state.perror[2] = 0.5f;
  state.perror[3] = 5.0f;
  update_pbest(device_, policy_, state);
  EXPECT_FLOAT_EQ(state.pbest_pos[2 * 3 + 0], 106.0f);
  EXPECT_NE(state.pbest_pos[0], 100.0f);  // particle 0 kept its old best
}

TEST_F(BestUpdateTest, GbestTracksMinimumAndPosition) {
  SwarmState state(device_, 50, 4);
  initialize_swarm(device_, policy_, state, 3, 0.0f, 1.0f, 0.5f);
  for (int i = 0; i < state.n; ++i) {
    state.perror[i] = 10.0f + i;
  }
  state.perror[17] = 0.25f;
  update_pbest(device_, policy_, state);
  const float gbest = update_gbest(device_, state);
  EXPECT_FLOAT_EQ(gbest, 0.25f);
  for (int j = 0; j < state.d; ++j) {
    EXPECT_EQ(state.gbest_pos[j], state.pbest_pos[17 * 4 + j]);
  }
}

TEST_F(BestUpdateTest, GbestIsMonotoneNonIncreasing) {
  SwarmState state(device_, 20, 2);
  initialize_swarm(device_, policy_, state, 3, 0.0f, 1.0f, 0.5f);
  rng::Xoshiro256 rng(5);
  float prev = std::numeric_limits<float>::infinity();
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < state.n; ++i) {
      state.perror[i] = rng.next_unit_float() * 100.0f;
    }
    update_pbest(device_, policy_, state);
    const float gbest = update_gbest(device_, state);
    EXPECT_LE(gbest, prev);
    prev = gbest;
  }
}

// ---- swarm update variants -------------------------------------------------

struct UpdateCase {
  UpdateTechnique technique;
  int n;
  int d;
};

class SwarmUpdateVariants : public ::testing::TestWithParam<UpdateCase> {};

/// Scalar reference for one full update, matching Eq. 1/2/5.
void reference_update(std::vector<float>& v, std::vector<float>& p,
                      const std::vector<float>& l, const std::vector<float>& g,
                      const std::vector<float>& pb,
                      const std::vector<float>& gb, int d,
                      const UpdateCoefficients& k) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    const int col = static_cast<int>(i % d);
    float nv = k.omega * v[i] + k.c1 * l[i] * (pb[i] - p[i]) +
               k.c2 * g[i] * (gb[col] - p[i]);
    if (k.vmax > 0.0f) {
      nv = std::clamp(nv, -k.vmax, k.vmax);
    }
    v[i] = nv;
    p[i] += nv;
  }
}

TEST_P(SwarmUpdateVariants, MatchesScalarReference) {
  const UpdateCase test_case = GetParam();
  vgpu::Device device;
  LaunchPolicy policy(device.spec());
  SwarmState state(device, test_case.n, test_case.d);
  initialize_swarm(device, policy, state, 11, -5.0f, 5.0f, 2.0f);
  vgpu::DeviceArray<float> l_mat(device, state.elements());
  vgpu::DeviceArray<float> g_mat(device, state.elements());
  generate_weights(device, policy, state.elements(), 11, 0, l_mat, g_mat);
  // A non-trivial gbest position.
  for (int j = 0; j < state.d; ++j) {
    state.gbest_pos[j] = 0.5f * j;
  }

  // Snapshot inputs for the reference.
  std::vector<float> v(state.velocities.data(),
                       state.velocities.data() + state.elements());
  std::vector<float> p(state.positions.data(),
                       state.positions.data() + state.elements());
  const std::vector<float> l(l_mat.data(), l_mat.data() + state.elements());
  const std::vector<float> g(g_mat.data(), g_mat.data() + state.elements());
  const std::vector<float> pb(state.pbest_pos.data(),
                              state.pbest_pos.data() + state.elements());
  const std::vector<float> gb(state.gbest_pos.data(),
                              state.gbest_pos.data() + state.d);

  PsoParams params;
  const UpdateCoefficients coeff = make_coefficients(params, -5.0, 5.0);
  swarm_update(device, policy, state, l_mat, g_mat, coeff,
               test_case.technique);
  reference_update(v, p, l, g, pb, gb, state.d, coeff);

  double max_err = 0;
  for (std::int64_t i = 0; i < state.elements(); ++i) {
    max_err = std::max<double>(max_err,
                               std::abs(state.velocities[i] - v[i]));
    max_err = std::max<double>(max_err, std::abs(state.positions[i] - p[i]));
  }
  // The tensor path reassociates (c*(a-b) vs c*a-c*b): allow float slack.
  EXPECT_LT(max_err, 2e-4);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, SwarmUpdateVariants,
    ::testing::Values(
        UpdateCase{UpdateTechnique::kGlobalMemory, 100, 32},
        UpdateCase{UpdateTechnique::kGlobalMemory, 33, 7},
        UpdateCase{UpdateTechnique::kSharedMemory, 100, 32},
        UpdateCase{UpdateTechnique::kSharedMemory, 33, 7},
        UpdateCase{UpdateTechnique::kSharedMemory, 16, 16},
        UpdateCase{UpdateTechnique::kTensorCore, 100, 32},
        UpdateCase{UpdateTechnique::kTensorCore, 33, 7},
        UpdateCase{UpdateTechnique::kTensorCore, 17, 19}));

TEST(SwarmUpdate, GlobalAndSharedAreBitIdentical) {
  // Both scalar paths use the same canonical expression.
  vgpu::Device dev_a;
  vgpu::Device dev_b;
  LaunchPolicy policy_a(dev_a.spec());
  LaunchPolicy policy_b(dev_b.spec());
  SwarmState a(dev_a, 70, 23);
  SwarmState b(dev_b, 70, 23);
  initialize_swarm(dev_a, policy_a, a, 9, -2.0f, 2.0f, 1.0f);
  initialize_swarm(dev_b, policy_b, b, 9, -2.0f, 2.0f, 1.0f);
  for (int j = 0; j < a.d; ++j) {
    a.gbest_pos[j] = 0.1f * j;
    b.gbest_pos[j] = 0.1f * j;
  }
  vgpu::DeviceArray<float> la(dev_a, a.elements());
  vgpu::DeviceArray<float> ga(dev_a, a.elements());
  vgpu::DeviceArray<float> lb(dev_b, b.elements());
  vgpu::DeviceArray<float> gb(dev_b, b.elements());
  generate_weights(dev_a, policy_a, a.elements(), 9, 0, la, ga);
  generate_weights(dev_b, policy_b, b.elements(), 9, 0, lb, gb);
  PsoParams params;
  const UpdateCoefficients coeff = make_coefficients(params, -2.0, 2.0);
  swarm_update(dev_a, policy_a, a, la, ga, coeff,
               UpdateTechnique::kGlobalMemory);
  swarm_update(dev_b, policy_b, b, lb, gb, coeff,
               UpdateTechnique::kSharedMemory);
  for (std::int64_t i = 0; i < a.elements(); ++i) {
    ASSERT_EQ(a.velocities[i], b.velocities[i]) << i;
    ASSERT_EQ(a.positions[i], b.positions[i]) << i;
  }
}

TEST(SwarmUpdate, VelocityClampHolds) {
  vgpu::Device device;
  LaunchPolicy policy(device.spec());
  SwarmState state(device, 200, 10);
  initialize_swarm(device, policy, state, 21, -600.0f, 600.0f, 50.0f);
  // As in PositionClampHolds: gbest_pos is only written by update_gbest.
  for (int j = 0; j < state.d; ++j) {
    state.gbest_pos[j] = 0.0f;
  }
  vgpu::DeviceArray<float> l_mat(device, state.elements());
  vgpu::DeviceArray<float> g_mat(device, state.elements());
  generate_weights(device, policy, state.elements(), 21, 0, l_mat, g_mat);
  PsoParams params;
  params.vmax_fraction = 0.05f;
  const UpdateCoefficients coeff = make_coefficients(params, -600.0, 600.0);
  ASSERT_GT(coeff.vmax, 0.0f);
  swarm_update(device, policy, state, l_mat, g_mat, coeff,
               UpdateTechnique::kGlobalMemory);
  for (std::int64_t i = 0; i < state.elements(); ++i) {
    ASSERT_LE(std::abs(state.velocities[i]), coeff.vmax);
  }
}

TEST(SwarmUpdate, PositionClampHolds) {
  vgpu::Device device;
  LaunchPolicy policy(device.spec());
  SwarmState state(device, 100, 8);
  initialize_swarm(device, policy, state, 31, -1.0f, 1.0f, 10.0f);
  // swarm_update reads gbest_pos, which only update_gbest writes; left
  // uninitialized it can hold NaN, which no clamp removes.
  for (int j = 0; j < state.d; ++j) {
    state.gbest_pos[j] = 0.0f;
  }
  vgpu::DeviceArray<float> l_mat(device, state.elements());
  vgpu::DeviceArray<float> g_mat(device, state.elements());
  generate_weights(device, policy, state.elements(), 31, 0, l_mat, g_mat);
  PsoParams params;
  params.velocity_clamp = false;
  params.position_clamp = true;
  const UpdateCoefficients coeff = make_coefficients(params, -1.0, 1.0);
  swarm_update(device, policy, state, l_mat, g_mat, coeff,
               UpdateTechnique::kGlobalMemory);
  for (std::int64_t i = 0; i < state.elements(); ++i) {
    ASSERT_GE(state.positions[i], -1.0f);
    ASSERT_LE(state.positions[i], 1.0f);
  }
}

TEST(SwarmUpdate, DisabledClampAllowsLargeVelocities) {
  vgpu::Device device;
  LaunchPolicy policy(device.spec());
  SwarmState state(device, 500, 10);
  initialize_swarm(device, policy, state, 41, -600.0f, 600.0f, 1200.0f);
  vgpu::DeviceArray<float> l_mat(device, state.elements());
  vgpu::DeviceArray<float> g_mat(device, state.elements());
  generate_weights(device, policy, state.elements(), 41, 0, l_mat, g_mat);
  PsoParams params;
  params.velocity_clamp = false;
  const UpdateCoefficients coeff = make_coefficients(params, -600.0, 600.0);
  EXPECT_EQ(coeff.vmax, 0.0f);
  swarm_update(device, policy, state, l_mat, g_mat, coeff,
               UpdateTechnique::kGlobalMemory);
  float max_v = 0;
  for (std::int64_t i = 0; i < state.elements(); ++i) {
    max_v = std::max(max_v, std::abs(state.velocities[i]));
  }
  EXPECT_GT(max_v, 600.0f);  // unbounded update exceeds any sane clamp
}

TEST(SwarmUpdate, TensorVariantAccountsTensorOps) {
  vgpu::Device device;
  LaunchPolicy policy(device.spec());
  SwarmState state(device, 64, 16);
  initialize_swarm(device, policy, state, 5, -1.0f, 1.0f, 0.5f);
  vgpu::DeviceArray<float> l_mat(device, state.elements());
  vgpu::DeviceArray<float> g_mat(device, state.elements());
  generate_weights(device, policy, state.elements(), 5, 0, l_mat, g_mat);
  PsoParams params;
  const UpdateCoefficients coeff = make_coefficients(params, -1.0, 1.0);
  device.reset_counters();
  swarm_update(device, policy, state, l_mat, g_mat, coeff,
               UpdateTechnique::kTensorCore);
  EXPECT_EQ(device.counters().launches, 1u);
}

}  // namespace
}  // namespace fastpso::core
