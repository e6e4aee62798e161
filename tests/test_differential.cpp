// Differential test: the virtual-GPU FastPSO against the sequential CPU
// port on the paper's four evaluation problems (Section 4.1). The two
// implementations use different RNG streams (Philox counter-based vs
// xoshiro sequential), so trajectories are decorrelated runs of the same
// algorithm: the comparison is tolerance-bounded — matching convergence
// regimes, not bit-equal values — plus the structural invariants any
// correct gbest trajectory must satisfy.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "benchkit/runner.h"
#include "core/objective.h"
#include "core/optimizer.h"
#include "core/params.h"
#include "vgpu/device.h"

namespace fastpso {
namespace {

struct DiffCase {
  const char* problem;
  int dim;
  int particles;
  int iters;
  /// Bound on the gbest-error ratio between the two implementations at the
  /// trajectory checkpoints (0 disables; for flat/deceptive landscapes).
  double ratio_bound;
  /// Bound on |gbest_a - gbest_b| at the final iteration.
  double final_abs;
  /// Additive floor so the ratio is meaningful near the optimum.
  double eps;
};

std::string case_name(const ::testing::TestParamInfo<DiffCase>& info) {
  return info.param.problem;
}

// Without a printer gtest dumps the raw bytes (the `problem` pointer and
// padding), and the discovered ctest names change from build to build.
void PrintTo(const DiffCase& c, std::ostream* os) {
  *os << "d=" << c.dim << " n=" << c.particles;
}

class Differential : public ::testing::TestWithParam<DiffCase> {};

void expect_monotone_non_increasing(const std::vector<float>& history,
                                    const char* label) {
  for (std::size_t i = 1; i < history.size(); ++i) {
    ASSERT_LE(history[i], history[i - 1])
        << label << ": gbest regressed at iteration " << i;
  }
}

TEST_P(Differential, MatchesSequentialReference) {
  const DiffCase& c = GetParam();
  core::PsoParams params;
  params.particles = c.particles;
  params.dim = c.dim;
  params.max_iter = c.iters;
  params.seed = 42;

  const auto problem = benchkit::make_any_problem(c.problem);
  const auto objective = core::objective_from_problem(*problem, c.dim);
  const double optimum =
      problem->has_known_optimum() ? problem->optimum_value(c.dim) : 0.0;

  vgpu::Device device;
  core::Optimizer optimizer(device, params);
  const core::Result gpu = optimizer.optimize(objective);
  const core::Result seq = baselines::run_fastpso_seq(objective, params);

  // Structural invariants of a correct gbest trajectory.
  ASSERT_EQ(gpu.gbest_history.size(), static_cast<std::size_t>(c.iters));
  ASSERT_EQ(seq.gbest_history.size(), static_cast<std::size_t>(c.iters));
  expect_monotone_non_increasing(gpu.gbest_history, "fastpso(vgpu)");
  expect_monotone_non_increasing(seq.gbest_history, "fastpso-seq");
  EXPECT_FLOAT_EQ(gpu.gbest_history.back(),
                  static_cast<float>(gpu.gbest_value));
  EXPECT_FLOAT_EQ(seq.gbest_history.back(),
                  static_cast<float>(seq.gbest_value));

  // Tolerance-bounded trajectory comparison at checkpoints: the error
  // relative to the known optimum must be in the same regime. A kernel
  // drift (wrong update, missed pbest, stale gbest) changes convergence by
  // orders of magnitude; RNG decorrelation does not.
  if (c.ratio_bound > 0.0) {
    for (double frac : {0.25, 0.5, 1.0}) {
      const std::size_t i =
          std::min(gpu.gbest_history.size() - 1,
                   static_cast<std::size_t>(frac * c.iters));
      const double a =
          std::abs(gpu.gbest_history[i] - optimum) + c.eps;
      const double b =
          std::abs(seq.gbest_history[i] - optimum) + c.eps;
      EXPECT_LE(a, c.ratio_bound * b)
          << c.problem << " at iteration " << i << ": vgpu=" << a
          << " seq=" << b;
      EXPECT_LE(b, c.ratio_bound * a)
          << c.problem << " at iteration " << i << ": vgpu=" << a
          << " seq=" << b;
    }
    // Both genuinely optimized.
    EXPECT_LT(gpu.gbest_history.back(), gpu.gbest_history.front());
    EXPECT_LT(seq.gbest_history.back(), seq.gbest_history.front());
  }

  if (c.final_abs > 0.0) {
    EXPECT_NEAR(gpu.gbest_value, seq.gbest_value, c.final_abs);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table1Problems, Differential,
    ::testing::Values(
        // {problem, dim, particles, iters, ratio_bound, final_abs, eps}
        DiffCase{"sphere", 10, 200, 300, 30.0, 5.0, 1e-3},
        DiffCase{"griewank", 10, 200, 300, 30.0, 5.0, 1e-3},
        // Generalized Easom at d=6 is a needle in a flat [-100,100]^6
        // landscape: neither implementation finds it at this budget; both
        // must flatline near 0 (no ratio comparison on a flat plateau).
        DiffCase{"easom", 6, 100, 100, 0.0, 0.05, 0.0},
        DiffCase{"threadconf", 10, 100, 150, 3.0, 0.0, 1e-3}),
    case_name);

}  // namespace
}  // namespace fastpso
