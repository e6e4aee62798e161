// Tests for the unified experiment runner (benchkit).

#include <gtest/gtest.h>

#include <string>

#include "benchkit/runner.h"
#include "common/check.h"

namespace fastpso::benchkit {
namespace {

TEST(Runner, ImplNamesRoundTrip) {
  for (Impl impl : all_impls()) {
    EXPECT_EQ(impl_from_string(to_string(impl)), impl);
  }
  EXPECT_THROW(impl_from_string("bogus"), CheckError);
}

TEST(Runner, SevenImplsInPaperOrder) {
  const auto impls = all_impls();
  ASSERT_EQ(impls.size(), 7u);
  EXPECT_EQ(impls.front(), Impl::kPyswarms);
  EXPECT_EQ(impls.back(), Impl::kFastPso);
  EXPECT_EQ(gpu_impls().size(), 3u);
}

TEST(Runner, MakeAnyProblemIncludesThreadconf) {
  EXPECT_NO_THROW(make_any_problem("sphere"));
  EXPECT_NO_THROW(make_any_problem("threadconf"));
  EXPECT_THROW(make_any_problem("missing"), CheckError);
}

TEST(Benchkit, EveryImplRejectsMalformedParams) {
  // A swarm with no particles, no dimensions or no iterations has no
  // answer: every implementation must refuse it instead of reporting a
  // gbest that nothing computed.
  for (Impl impl : all_impls()) {
    for (int field = 0; field < 3; ++field) {
      RunSpec spec;
      spec.impl = impl;
      spec.problem = "sphere";
      spec.particles = field == 0 ? 0 : 16;
      spec.dim = field == 1 ? 0 : 4;
      spec.iters = field == 2 ? 0 : 5;
      SCOPED_TRACE(std::string(to_string(impl)) + " field " +
                   std::to_string(field));
      EXPECT_THROW(run_spec(spec), CheckError);
    }
  }
}

class AllImplsSmoke : public ::testing::TestWithParam<Impl> {};

TEST_P(AllImplsSmoke, RunsTinyCell) {
  RunSpec spec;
  spec.impl = GetParam();
  spec.problem = "sphere";
  spec.particles = 50;
  spec.dim = 6;
  spec.iters = 100;
  spec.executed_iters = 5;
  const RunOutcome outcome = run_spec(spec);
  EXPECT_GT(outcome.modeled_seconds_full, 0.0);
  EXPECT_GT(outcome.wall_seconds, 0.0);
  EXPECT_TRUE(outcome.has_error);
  EXPECT_GE(outcome.error, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Everyone, AllImplsSmoke,
                         ::testing::ValuesIn(all_impls()),
                         [](const auto& param_info) {
                           std::string name = to_string(param_info.param);
                           for (char& ch : name) {
                             if (ch == '-') {
                               ch = '_';
                             }
                           }
                           return name;
                         });

TEST(Runner, IterationScalingMultipliesModeledTime) {
  RunSpec spec;
  spec.impl = Impl::kFastPso;
  spec.problem = "sphere";
  spec.particles = 100;
  spec.dim = 8;
  spec.iters = 100;
  spec.executed_iters = 10;
  const RunOutcome scaled = run_spec(spec);
  spec.executed_iters = 100;
  const RunOutcome full = run_spec(spec);
  // Scaled estimate should be within ~25% of the genuinely full run.
  EXPECT_NEAR(scaled.modeled_seconds_full / full.modeled_seconds_full, 1.0,
              0.25);
}

TEST(Runner, NoScalingWhenExecutedEqualsIters) {
  RunSpec spec;
  spec.impl = Impl::kFastPsoSeq;
  spec.problem = "sphere";
  spec.particles = 50;
  spec.dim = 5;
  spec.iters = 20;
  spec.executed_iters = 20;
  const RunOutcome outcome = run_spec(spec);
  EXPECT_DOUBLE_EQ(outcome.modeled_seconds_full,
                   outcome.result.modeled_seconds);
}

TEST(Runner, EarlyStoppedRunsAreNotScaled) {
  RunSpec spec;
  spec.impl = Impl::kScikitOpt;
  spec.problem = "easom";  // flat landscape -> early stop
  spec.particles = 50;
  spec.dim = 20;
  spec.iters = 100000;
  spec.executed_iters = 400;  // > patience so the stop fires
  const RunOutcome outcome = run_spec(spec);
  EXPECT_LT(outcome.result.iterations, 400);
  EXPECT_DOUBLE_EQ(outcome.modeled_seconds_full,
                   outcome.result.modeled_seconds);
}

TEST(Runner, ThreadconfHasNoErrorColumn) {
  RunSpec spec;
  spec.impl = Impl::kFastPso;
  spec.problem = "threadconf";
  spec.particles = 20;
  spec.dim = 50;
  spec.iters = 5;
  spec.executed_iters = 5;
  const RunOutcome outcome = run_spec(spec);
  EXPECT_FALSE(outcome.has_error);
}

TEST(Runner, BreakdownScaledConsistently) {
  RunSpec spec;
  spec.impl = Impl::kFastPso;
  spec.problem = "sphere";
  spec.particles = 100;
  spec.dim = 8;
  spec.iters = 200;
  spec.executed_iters = 10;
  const RunOutcome outcome = run_spec(spec);
  EXPECT_NEAR(outcome.modeled_breakdown_full.total(),
              outcome.modeled_seconds_full, 1e-9);
}

}  // namespace
}  // namespace fastpso::benchkit
