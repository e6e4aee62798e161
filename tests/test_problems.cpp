// Tests for the built-in optimization problems: known optima, sample
// values, domain sanity and registry behaviour. Parameterized across all
// built-ins where the property is generic.

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

#include "common/check.h"
#include "problems/functions.h"
#include "problems/problem.h"
#include "rng/splitmix.h"

namespace fastpso::problems {
namespace {

// ---- generic properties over every built-in -----------------------------

class AllProblems : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override { problem_ = make_problem(GetParam()); }
  std::unique_ptr<Problem> problem_;
};

TEST_P(AllProblems, DomainIsNonEmpty) {
  EXPECT_LT(problem_->lower_bound(), problem_->upper_bound());
}

TEST_P(AllProblems, NameMatchesRegistryKey) {
  EXPECT_EQ(problem_->name(), GetParam());
}

TEST_P(AllProblems, CostIsPositive) {
  const EvalCost cost = problem_->cost();
  EXPECT_GT(cost.flops(10), 0.0);
  EXPECT_GE(cost.transcendentals(10), 0.0);
  EXPECT_GT(cost.vector_passes, 0.0);
}

TEST_P(AllProblems, Float32AndFloat64PathsAgree) {
  const int d = 8;
  std::vector<double> x64(d);
  std::vector<float> x32(d);
  for (int i = 0; i < d; ++i) {
    x64[i] = problem_->lower_bound() +
             (problem_->upper_bound() - problem_->lower_bound()) *
                 (0.1 + 0.08 * i);
    x32[i] = static_cast<float>(x64[i]);
  }
  const double f64 = problem_->eval_f64(x64.data(), d);
  const double f32 = problem_->eval_f32(x32.data(), d);
  const double scale = std::max({1.0, std::abs(f64), std::abs(f32)});
  EXPECT_NEAR(f32 / scale, f64 / scale, 1e-4);
}

TEST_P(AllProblems, ValueAboveOptimumInsideDomain) {
  if (!problem_->has_known_optimum()) {
    GTEST_SKIP();
  }
  const int d = 6;
  std::vector<float> x(d);
  for (int i = 0; i < d; ++i) {
    x[i] = static_cast<float>(problem_->lower_bound() * 0.3 +
                              i * 0.11 * problem_->upper_bound() / d);
  }
  EXPECT_GE(problem_->eval_f32(x.data(), d) + 1e-6,
            problem_->optimum_value(d));
}

INSTANTIATE_TEST_SUITE_P(Builtins, AllProblems,
                         ::testing::ValuesIn(builtin_problem_names()));

// ---- specific known values ------------------------------------------------

TEST(Sphere, ValueAtOriginAndKnownPoint) {
  Sphere sphere;
  std::vector<double> zero(5, 0.0);
  EXPECT_DOUBLE_EQ(sphere.eval_f64(zero.data(), 5), 0.0);
  std::vector<double> x = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(sphere.eval_f64(x.data(), 2), 5.0);
}

TEST(Griewank, OptimumAtOrigin) {
  Griewank griewank;
  std::vector<double> zero(10, 0.0);
  EXPECT_NEAR(griewank.eval_f64(zero.data(), 10), 0.0, 1e-12);
}

TEST(Griewank, KnownNonTrivialValue) {
  Griewank griewank;
  std::vector<double> x = {100.0};
  // 100^2/4000 - cos(100) + 1
  EXPECT_NEAR(griewank.eval_f64(x.data(), 1),
              2.5 - std::cos(100.0) + 1.0, 1e-9);
}

TEST(Easom, OptimumAtPiForEvenDims) {
  Easom easom;
  std::vector<double> pi(4, std::numbers::pi);
  EXPECT_NEAR(easom.eval_f64(pi.data(), 4), -1.0, 1e-9);
  // Low dimensions use the classic optimum; beyond d=2 the paper's
  // plateau convention applies (see functions.h).
  EXPECT_DOUBLE_EQ(easom.optimum_value(2), -1.0);
  EXPECT_DOUBLE_EQ(easom.optimum_value(1), 0.0);
  EXPECT_DOUBLE_EQ(easom.optimum_value(4), 0.0);
  EXPECT_DOUBLE_EQ(easom.optimum_value(200), 0.0);
}

TEST(Easom, FlatAlmostEverywhere) {
  // The generalized Easom underflows to ~0 away from pi — the landscape
  // behind the scikit-opt early-stop reproduction.
  Easom easom;
  std::vector<double> x(50, 0.0);
  EXPECT_NEAR(easom.eval_f64(x.data(), 50), 0.0, 1e-30);
}

TEST(Rastrigin, OptimumAndRippleValue) {
  Rastrigin rastrigin;
  std::vector<double> zero(3, 0.0);
  EXPECT_NEAR(rastrigin.eval_f64(zero.data(), 3), 0.0, 1e-12);
  std::vector<double> x = {0.5};
  // 10 + 0.25 - 10 cos(pi) = 10 + 0.25 + 10
  EXPECT_NEAR(rastrigin.eval_f64(x.data(), 1), 20.25, 1e-9);
}

TEST(Rosenbrock, OptimumAtOnes) {
  Rosenbrock rosenbrock;
  std::vector<double> ones(6, 1.0);
  EXPECT_DOUBLE_EQ(rosenbrock.eval_f64(ones.data(), 6), 0.0);
  std::vector<double> x = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(rosenbrock.eval_f64(x.data(), 2), 1.0);
}

TEST(Ackley, OptimumAtOrigin) {
  Ackley ackley;
  std::vector<double> zero(8, 0.0);
  EXPECT_NEAR(ackley.eval_f64(zero.data(), 8), 0.0, 1e-9);
}

TEST(Schwefel, NearZeroAtKnownOptimum) {
  Schwefel schwefel;
  std::vector<double> x(4, 420.9687);
  EXPECT_NEAR(schwefel.eval_f64(x.data(), 4), 0.0, 1e-3);
}

TEST(Zakharov, OptimumAndSimpleValue) {
  Zakharov zakharov;
  std::vector<double> zero(5, 0.0);
  EXPECT_DOUBLE_EQ(zakharov.eval_f64(zero.data(), 5), 0.0);
  std::vector<double> x = {1.0};
  // 1 + 0.5^2 + 0.5^4
  EXPECT_DOUBLE_EQ(zakharov.eval_f64(x.data(), 1), 1.3125);
}

TEST(Levy, OptimumAtOnes) {
  Levy levy;
  std::vector<double> ones(7, 1.0);
  EXPECT_NEAR(levy.eval_f64(ones.data(), 7), 0.0, 1e-12);
}

TEST(StyblinskiTang, OptimumScalesWithDimension) {
  StyblinskiTang st;
  std::vector<double> x(3, -2.903534);
  EXPECT_NEAR(st.eval_f64(x.data(), 3), st.optimum_value(3), 1e-6);
}

// ---- registry -----------------------------------------------------------------

TEST(Registry, AllNamesConstruct) {
  for (const auto& name : builtin_problem_names()) {
    EXPECT_NO_THROW(make_problem(name)) << name;
  }
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(make_problem("nope"), fastpso::CheckError);
}

TEST(Registry, PaperProblemsListed) {
  const auto names = paper_problem_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[3], "threadconf");
}

TEST(Registry, SpanEvaluationConvenience) {
  auto sphere = make_problem("sphere");
  std::vector<float> x = {3.0f, 4.0f};
  EXPECT_DOUBLE_EQ(sphere->evaluate(std::span<const float>(x)), 25.0);
}

// ---- bit pins ---------------------------------------------------------------

// Every built-in problem's eval_f32 and eval_f64 bits at fixed seeded
// points. The transcendentals come from common/dmath, not the host libm, so
// these bits are the same on every x86-64 host and under any glibc CPU
// feature mask (CI reruns this test under
// GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA,-AVX,-FMA4). The dimensions
// cover scalar tails, groups of four, evaluation chunk edges (64) and
// Griewank's 1024-entry root table.

struct BitPin {
  const char* problem;
  int dim;
  std::uint64_t f32;  ///< bits of eval_f32 at the float-rounded point
  std::uint64_t f64;  ///< bits of eval_f64
};

constexpr BitPin kBitPins[] = {
    {"sphere", 1, 0x3fddbb71b8b11000u, 0x3fddbb7190aeb268u},
    {"sphere", 2, 0x401d863093ebafa4u, 0x401d8630b83697ceu},
    {"sphere", 3, 0x4035367ca537b844u, 0x4035367cb19b8fa5u},
    {"sphere", 4, 0x403e2b4523e1ba01u, 0x403e2b451dcd7ff9u},
    {"sphere", 5, 0x404546db873c652au, 0x404546db7422ca6cu},
    {"sphere", 8, 0x404a045a3f963f6du, 0x404a045a4bdc6f87u},
    {"sphere", 64, 0x40819b1a3d474c6eu, 0x40819b1a3b4f2ec8u},
    {"sphere", 200, 0x4099d41d986de312u, 0x4099d41d9a8a6d5au},
    {"sphere", 1025, 0x40c1bb140158e71bu, 0x40c1bb14015a4d27u},
    {"griewank", 1, 0x4006a2c34a429236u, 0x4006a2c5040bd159u},
    {"griewank", 2, 0x4039d1f3d5f6d20au, 0x4039d1f419f5af89u},
    {"griewank", 3, 0x40528fe4acf96b78u, 0x40528fe4ace3141fu},
    {"griewank", 4, 0x405a2ea223d5a2b1u, 0x405a2ea224477bc3u},
    {"griewank", 5, 0x4062625553804377u, 0x40626255577691ddu},
    {"griewank", 8, 0x406674a0154022a1u, 0x406674a01f2ab5c7u},
    {"griewank", 64, 0x409e3cf43f81be7bu, 0x409e3cf44397a91bu},
    {"griewank", 200, 0x40b62c3970a2d8d9u, 0x40b62c3970b6b422u},
    {"griewank", 1025, 0x40de701811a425e5u, 0x40de701813627731u},
    {"easom", 1, 0x3f621c8ee0a1fe75u, 0x3f621c8eedd483d8u},
    {"easom", 2, 0xbf69eedf805b5a28u, 0xbf69eedf7b4a6460u},
    {"easom", 3, 0x392263ef4377aaebu, 0x392263f0050df75au},
    {"easom", 4, 0xbc70542f24a66cc2u, 0xbc70542fc383c33bu},
    {"easom", 5, 0x2f19676b5e6b8f6du, 0x2f19677495ab6a5du},
    {"easom", 8, 0xb0d4a603547aac18u, 0xb0d4a5afbbcba673u},
    {"easom", 64, 0x8000000000000000u, 0x8000000000000000u},
    {"easom", 200, 0x8000000000000000u, 0x8000000000000000u},
    {"easom", 1025, 0x0000000000000000u, 0x0000000000000000u},
    {"rastrigin", 1, 0x402d4370f5f024f4u, 0x402d43712912fa00u},
    {"rastrigin", 2, 0x403bb8237b7e2964u, 0x403bb823605fc1d3u},
    {"rastrigin", 3, 0x403a8a3f7778fac3u, 0x403a8a3f860d23e6u},
    {"rastrigin", 4, 0x404d7e546d851bc0u, 0x404d7e545c221536u},
    {"rastrigin", 5, 0x40555195943a643du, 0x40555195633c7c64u},
    {"rastrigin", 8, 0x40629653cf65b35fu, 0x40629653c6fa065bu},
    {"rastrigin", 64, 0x409376d9ba0c7b54u, 0x409376d9c2faae4fu},
    {"rastrigin", 200, 0x40ad2df782124a02u, 0x40ad2df780476efcu},
    {"rastrigin", 1025, 0x40d2d2882d9fd826u, 0x40d2d2882bd6c388u},
    {"rosenbrock", 1, 0x0000000000000000u, 0x0000000000000000u},
    {"rosenbrock", 2, 0x4053809b2f8f7f5eu, 0x4053809b316af5f6u},
    {"rosenbrock", 3, 0x407278b33335c259u, 0x407278b33ab12522u},
    {"rosenbrock", 4, 0x408a53a34567f6bcu, 0x408a53a33e0d8cf6u},
    {"rosenbrock", 5, 0x40a6e7abace3b718u, 0x40a6e7ababfee8b0u},
    {"rosenbrock", 8, 0x40ac9a02d0a70bf8u, 0x40ac9a02e0d95038u},
    {"rosenbrock", 64, 0x40ddfad41a173477u, 0x40ddfad41f8800b3u},
    {"rosenbrock", 200, 0x40f7c78abb317dc1u, 0x40f7c78abdbfbe8bu},
    {"rosenbrock", 1025, 0x41200071952907dbu, 0x41200071963a6d73u},
    {"ackley", 1, 0x402bac49c8aa8a93u, 0x402bac49d83d9cacu},
    {"ackley", 2, 0x4033b68c970478b7u, 0x4033b68c92bb0378u},
    {"ackley", 3, 0x40353d73869f38bcu, 0x40353d73963fbc67u},
    {"ackley", 4, 0x4035ab31242eef50u, 0x4035ab312c34490bu},
    {"ackley", 5, 0x4035c6f4ff45e887u, 0x4035c6f4fccb4079u},
    {"ackley", 8, 0x403545226a804794u, 0x4035452267f2048bu},
    {"ackley", 64, 0x4035208b8fd411d6u, 0x4035208b943ec045u},
    {"ackley", 200, 0x40353e8f760448d0u, 0x40353e8f7490a83du},
    {"ackley", 1025, 0x40354be3466084bbu, 0x40354be344eff60du},
    {"schwefel", 1, 0x407637bf8e48b15bu, 0x407637bf8dcfee6bu},
    {"schwefel", 2, 0x408b22b653e82648u, 0x408b22b63c9eb65eu},
    {"schwefel", 3, 0x409689deb98f6ba1u, 0x409689dec3c2d638u},
    {"schwefel", 4, 0x40959c39ec531023u, 0x40959c3a17807722u},
    {"schwefel", 5, 0x409e81bf5eb7898au, 0x409e81bf5178c70cu},
    {"schwefel", 8, 0x40a9d5a9006edf08u, 0x40a9d5a8f45c720eu},
    {"schwefel", 64, 0x40d8f044d8c085feu, 0x40d8f044d1e8376cu},
    {"schwefel", 200, 0x40f50dd4c86bf8b5u, 0x40f50dd4c89a2b89u},
    {"schwefel", 1025, 0x411a8e708d192d34u, 0x411a8e708c37a593u},
    {"zakharov", 1, 0x4038a92596166284u, 0x4038a925a6ce000bu},
    {"zakharov", 2, 0x40b1e2987d2e9753u, 0x40b1e29896a3acf7u},
    {"zakharov", 3, 0x40c505dad544483eu, 0x40c505dafa0ce53au},
    {"zakharov", 4, 0x411ab2979c8f250bu, 0x411ab2979d739f01u},
    {"zakharov", 5, 0x40b0e3a3fcc23595u, 0x40b0e3a3b7eeef99u},
    {"zakharov", 8, 0x415159616f37de5cu, 0x415159619db8178au},
    {"zakharov", 64, 0x42dbc2089a66eeedu, 0x42dbc2089a0af527u},
    {"zakharov", 200, 0x439378f68159f31fu, 0x439378f67d6e3d54u},
    {"zakharov", 1025, 0x44bd52d252b4fae6u, 0x44bd52d24feb0063u},
    {"levy", 1, 0x3fb3209883993deau, 0x3fb32098bafc1612u},
    {"levy", 2, 0x3ffd1d797f733b80u, 0x3ffd1d7974cc777eu},
    {"levy", 3, 0x402c690b05f91964u, 0x402c690b5c9dd20au},
    {"levy", 4, 0x402a4d47ed1d241fu, 0x402a4d47ee75e0c1u},
    {"levy", 5, 0x404703cc1e6f8ee6u, 0x404703cc6a639bddu},
    {"levy", 8, 0x404e5b106b5457bbu, 0x404e5b107430da56u},
    {"levy", 64, 0x408a22ce1a9ed1d3u, 0x408a22ce187b9c6au},
    {"levy", 200, 0x40a3455b6f7df50au, 0x40a3455b84c7e358u},
    {"levy", 1025, 0x40ca1f0880e63b81u, 0x40ca1f087d85c5ddu},
    {"styblinski_tang", 1, 0xbffc83c5be8a074eu, 0xbffc83c5db873696u},
    {"styblinski_tang", 2, 0xc03c3119b3b4be18u, 0xc03c3119b450719cu},
    {"styblinski_tang", 3, 0xc04596e7ef83006fu, 0xc04596e806d961f9u},
    {"styblinski_tang", 4, 0xc026f4c86a476a5fu, 0xc026f4c855ab4235u},
    {"styblinski_tang", 5, 0xc05eb4bd27016029u, 0xc05eb4bd5e981185u},
    {"styblinski_tang", 8, 0x402a930b1eec8cacu, 0x402a930bdf4d2124u},
    {"styblinski_tang", 64, 0xc07c81c16888253du, 0xc07c81c189701184u},
    {"styblinski_tang", 200, 0xc091255be839ca59u, 0xc091255bbc31f7bbu},
    {"styblinski_tang", 1025, 0xc0af834cfac6ba25u, 0xc0af834d09eb3d62u},
};

/// Row literal for a pin, printed when a value moves.
std::string pin_row(const std::string& problem, int dim, std::uint64_t f32,
                    std::uint64_t f64) {
  char row[128];
  std::snprintf(row, sizeof row,
                "    {\"%s\", %d, 0x%016" PRIx64 "u, 0x%016" PRIx64 "u},",
                problem.c_str(), dim, f32, f64);
  return row;
}

TEST(ProblemBits, EveryBuiltinIsPinned) {
  std::string moved;
  std::size_t checked = 0;
  for (const auto& name : builtin_problem_names()) {
    const auto problem = make_problem(name);
    for (const int dim : {1, 2, 3, 4, 5, 8, 64, 200, 1025}) {
      rng::SplitMix64 gen(static_cast<std::uint64_t>(dim));
      std::vector<double> x64(static_cast<std::size_t>(dim));
      std::vector<float> x32(x64.size());
      for (std::size_t i = 0; i < x64.size(); ++i) {
        x64[i] = problem->lower_bound() +
                 (problem->upper_bound() - problem->lower_bound()) *
                     gen.next_unit();
        x32[i] = static_cast<float>(x64[i]);
      }
      const auto f32 =
          std::bit_cast<std::uint64_t>(problem->eval_f32(x32.data(), dim));
      const auto f64 =
          std::bit_cast<std::uint64_t>(problem->eval_f64(x64.data(), dim));
      const BitPin* pin = nullptr;
      for (const BitPin& p : kBitPins) {
        if (name == p.problem && dim == p.dim) {
          pin = &p;
        }
      }
      if (pin == nullptr || pin->f32 != f32 || pin->f64 != f64) {
        moved += pin_row(name, dim, f32, f64) + "\n";
      } else {
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, std::size(kBitPins));
  EXPECT_TRUE(moved.empty()) << "rows that differ from kBitPins:\n" << moved;
}

// ---- batch rows against single rows ----------------------------------------

/// `n` rows of `d` seeded domain points, row-major, starting `offset` floats
/// into the returned buffer.
std::vector<float> domain_rows(const Problem& problem, int n, int d,
                               int offset, std::uint64_t seed) {
  rng::SplitMix64 gen(seed);
  std::vector<float> buf(static_cast<std::size_t>(offset + n * d));
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<float>(
        problem.lower_bound() +
        (problem.upper_bound() - problem.lower_bound()) * gen.next_unit());
  }
  return buf;
}

/// Whether eval_batch over the n rows at X equals (float)eval_f32 of each
/// row bit for bit; the first differing row is reported with `what`. A NaN
/// matches any NaN: IEEE 754 leaves open which NaN operand an operation
/// returns, and gcc commutes operands and folds x * -1.0 into -x, so the
/// sign of a NaN is not fixed by the source (Easom's sign * prod * exp(-sq)
/// yields -NaN in one instantiation and +NaN in the other).
bool batch_matches_rows(const Problem& problem, const float* X, int n, int d,
                        const std::string& what) {
  std::vector<float> out(static_cast<std::size_t>(n));
  problem.eval_batch(X, n, d, out.data());
  for (int i = 0; i < n; ++i) {
    const float got = out[static_cast<std::size_t>(i)];
    const float want = static_cast<float>(
        problem.eval_f32(X + static_cast<std::size_t>(i) * d, d));
    const auto got_bits = std::bit_cast<std::uint32_t>(got);
    const auto want_bits = std::bit_cast<std::uint32_t>(want);
    if (got_bits != want_bits && !(std::isnan(got) && std::isnan(want))) {
      ADD_FAILURE() << problem.name() << " " << what << ": row " << i
                    << " of n=" << n << ", d=" << d << " gave " << std::hex
                    << got_bits << ", eval_f32 " << want_bits;
      return false;
    }
  }
  return true;
}

// With AVX2, eval_batch evaluates four rows per vector (problems/lanes.h)
// and the n % 4 tail rows one at a time; both must give eval_f32's bits.
// The batch sizes cover tails 0-3 and several groups; the row blocks start
// on and one float off alignment. Special groups put one odd value in one
// row, at each lane position: NaN, +-Inf, a value past dmath's fast trig
// range for every built-in (3e12), and a Griewank argument that needs
// dmath's third reduction stage (4608148 in column 148: 4608148 / sqrt(149)
// lies within 2^-49 relative of 240333 pi/2, dmath's third-stage
// threshold). The AVX2 kernels take such a group lane by lane.
TEST(ProblemBits, BatchRowsMatchEvalF32) {
  for (const auto& name : builtin_problem_names()) {
    const auto problem = make_problem(name);
    for (const int d : {1, 2, 3, 4, 5, 8, 64, 200, 1025}) {
      for (const int n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 64}) {
        for (const int offset : {0, 1}) {
          const auto buf = domain_rows(*problem, n, d, offset,
                                       static_cast<std::uint64_t>(n * d));
          ASSERT_TRUE(batch_matches_rows(*problem, buf.data() + offset, n, d,
                                         "offset " + std::to_string(offset)));
        }
      }
    }
    const int d = 200;
    constexpr int kStageThreeColumn = 148;
    const float inf = std::numeric_limits<float>::infinity();
    const struct {
      const char* what;
      float value;
      int column;
    } specials[] = {
        {"NaN", std::numeric_limits<float>::quiet_NaN(), 0},
        {"NaN", std::numeric_limits<float>::quiet_NaN(), kStageThreeColumn},
        {"+Inf", inf, 0},
        {"-Inf", -inf, kStageThreeColumn},
        {"past the fast range", 3e12f, 0},
        {"past the fast range", -3e12f, kStageThreeColumn},
        {"third reduction stage", 4608148.0f, kStageThreeColumn},
    };
    for (const auto& special : specials) {
      for (int lane = 0; lane < 4; ++lane) {
        for (const int n : {4, 9}) {
          auto buf = domain_rows(*problem, n, d, 1, 7);
          buf[static_cast<std::size_t>(1 + lane * d + special.column)] =
              special.value;
          ASSERT_TRUE(batch_matches_rows(
              *problem, buf.data() + 1, n, d,
              std::string(special.what) + " in lane " + std::to_string(lane) +
                  ", column " + std::to_string(special.column)));
        }
      }
    }
  }
}

}  // namespace
}  // namespace fastpso::problems
