// Unit + statistical tests for src/rng: Philox4x32-10, SplitMix64,
// xoshiro256**. Statistical tests use fixed seeds and generous tolerances so
// they are deterministic.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "common/cpu.h"
#include "rng/philox.h"
#include "rng/splitmix.h"
#include "rng/xoshiro.h"

namespace fastpso::rng {
namespace {

// ---- Philox core -----------------------------------------------------

TEST(Philox, DeterministicForSameInputs) {
  const PhiloxBlock a = philox4x32({1, 2, 3, 4}, {5, 6});
  const PhiloxBlock b = philox4x32({1, 2, 3, 4}, {5, 6});
  EXPECT_EQ(a, b);
}

TEST(Philox, CounterChangesOutput) {
  const PhiloxBlock a = philox4x32({0, 0, 0, 0}, {0, 0});
  const PhiloxBlock b = philox4x32({1, 0, 0, 0}, {0, 0});
  EXPECT_NE(a, b);
}

TEST(Philox, KeyChangesOutput) {
  const PhiloxBlock a = philox4x32({0, 0, 0, 0}, {0, 0});
  const PhiloxBlock b = philox4x32({0, 0, 0, 0}, {1, 0});
  EXPECT_NE(a, b);
}

TEST(Philox, AvalancheSingleCounterBitFlipsManyOutputBits) {
  const PhiloxBlock a = philox4x32({42, 0, 0, 0}, {7, 9});
  const PhiloxBlock b = philox4x32({43, 0, 0, 0}, {7, 9});
  int flipped = 0;
  for (int lane = 0; lane < 4; ++lane) {
    flipped += std::popcount(a[lane] ^ b[lane]);
  }
  // 128 output bits; a good PRF flips ~64. Accept a generous band.
  EXPECT_GT(flipped, 40);
  EXPECT_LT(flipped, 90);
}

// ---- PhiloxStream -------------------------------------------------------

TEST(PhiloxStream, RandomAccessIsConsistent) {
  const PhiloxStream stream(123, 5);
  const float at7 = stream.uniform_at(7);
  // Re-reading any index gives the same value, regardless of order.
  EXPECT_EQ(stream.uniform_at(9), stream.uniform_at(9));
  EXPECT_EQ(stream.uniform_at(7), at7);
}

TEST(PhiloxStream, StreamsAreIndependent) {
  const PhiloxStream s0(123, 0);
  const PhiloxStream s1(123, 1);
  int equal = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    equal += s0.uint_at(i) == s1.uint_at(i) ? 1 : 0;
  }
  EXPECT_LE(equal, 1);  // collisions essentially impossible
}

TEST(PhiloxStream, SeedsAreIndependent) {
  const PhiloxStream s0(1, 0);
  const PhiloxStream s1(2, 0);
  int equal = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    equal += s0.uint_at(i) == s1.uint_at(i) ? 1 : 0;
  }
  EXPECT_LE(equal, 1);
}

TEST(PhiloxStream, UniformInUnitInterval) {
  const PhiloxStream stream(99, 0);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    const float u = stream.uniform_at(i);
    EXPECT_GE(u, 0.0f);
    EXPECT_LT(u, 1.0f);
  }
}

TEST(PhiloxStream, UniformRangeRespectsBounds) {
  const PhiloxStream stream(99, 0);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const float u = stream.uniform_at(i, -5.12f, 5.12f);
    EXPECT_GE(u, -5.12f);
    EXPECT_LE(u, 5.12f);
  }
}

TEST(PhiloxStream, MeanAndVarianceMatchUniform) {
  const PhiloxStream stream(7, 3);
  const int n = 200000;
  double sum = 0;
  double sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    const double u = stream.uniform_at(i);
    sum += u;
    sum_sq += u * u;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(PhiloxStream, ChiSquareUniformityOver64Bins) {
  const PhiloxStream stream(2024, 0);
  constexpr int kBins = 64;
  constexpr int kSamples = 64000;
  std::vector<int> counts(kBins, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[static_cast<int>(stream.uniform_at(i) * kBins)];
  }
  const double expected = static_cast<double>(kSamples) / kBins;
  double chi2 = 0;
  for (int count : counts) {
    const double delta = count - expected;
    chi2 += delta * delta / expected;
  }
  // 63 dof: mean 63, std ~11.2; 5-sigma band keeps this deterministic-safe.
  EXPECT_LT(chi2, 63 + 5 * 11.3);
}

TEST(PhiloxStream, Uniform4MatchesScalarPath) {
  const PhiloxStream stream(55, 9);
  for (std::uint64_t block = 0; block < 64; ++block) {
    const auto lanes = stream.uniform4_at(block);
    for (int lane = 0; lane < 4; ++lane) {
      EXPECT_EQ(lanes[lane], stream.uniform_at(block * 4 + lane));
    }
  }
}

TEST(PhiloxStream, UniformPairMatchesScalarPath) {
  const PhiloxStream stream(55, 9);
  for (std::uint64_t pair = 0; pair < 64; ++pair) {
    const auto r = stream.uniform_pair_at(pair);
    EXPECT_EQ(r[0], stream.uniform_at(2 * pair));
    EXPECT_EQ(r[1], stream.uniform_at(2 * pair + 1));
  }
}

/// Checks out[k] == lo + span * uniform_at(4 * first_block + k) bit for bit
/// over the first `filled` of `blocks` blocks, and that the fill wrote
/// nothing past them. fill(first, blocks, lo, span, out) runs the fill and
/// returns how many blocks it filled.
template <typename Fill>
void expect_fill_exact(const PhiloxStream& stream, std::uint64_t first_block,
                       std::int64_t blocks, std::int64_t filled,
                       const Fill& fill) {
  const float lo = -3.0f;
  const float span = 6.5f;
  constexpr float kGuard = 123.0f;
  std::vector<float> out(static_cast<std::size_t>(4 * blocks + 4), kGuard);
  ASSERT_EQ(fill(first_block, blocks, lo, span, out.data()), filled)
      << "first_block " << first_block << ", blocks " << blocks;
  for (std::int64_t k = 0; k < 4 * filled; ++k) {
    const float want =
        lo + span * stream.uniform_at(4 * first_block +
                                      static_cast<std::uint64_t>(k));
    ASSERT_EQ(std::bit_cast<std::uint32_t>(out[static_cast<std::size_t>(k)]),
              std::bit_cast<std::uint32_t>(want))
        << "first_block " << first_block << ", blocks " << blocks
        << ", value " << k;
  }
  for (std::size_t k = static_cast<std::size_t>(4 * filled); k < out.size();
       ++k) {
    EXPECT_EQ(out[k], kGuard) << "first_block " << first_block << ", blocks "
                              << blocks << ", value " << k;
  }
}

/// expect_fill_exact for the bulk fill, which fills every block.
void expect_bulk_fill_exact(const PhiloxStream& stream,
                            std::uint64_t first_block, std::int64_t blocks) {
  expect_fill_exact(stream, first_block, blocks, blocks,
                    [&stream](std::uint64_t first, std::int64_t count,
                              float lo, float span, float* out) {
                      stream.fill_uniform_blocks(first, count, lo, span, out);
                      return count;
                    });
}

/// Block counts around one to four groups of sixteen blocks (AVX-512F) and
/// two to eight of eight (AVX2): a group pair, a lone odd last group and a
/// remainder in every combination.
constexpr std::int64_t kGroupBlockCounts[] = {15, 16, 17, 31, 32, 33,
                                              47, 48, 49, 63, 64, 65};

/// First blocks 2^32 - k: the counter's low word wraps k blocks into the
/// fill, inside the first group of sixteen (k = 1, 3), at the first block,
/// inside and at the last block of the second (k = 16, 17, 20, 31), and at
/// the first block after the pair (k = 32).
constexpr std::uint64_t kCarryOffsets[] = {1, 3, 16, 17, 20, 31, 32};

// The bulk fill runs AVX-512F groups of sixteen blocks, then AVX2 groups of
// eight, two groups per step, then a scalar remainder, as the CPU allows:
// block counts around one group, and one to eight groups with and without
// a remainder.
TEST(PhiloxStream, BulkFillMatchesScalarPath) {
  const PhiloxStream stream(55, 9);
  for (const std::int64_t blocks : {0, 1, 7, 8, 9, 24, 25, 40, 41}) {
    for (const std::uint64_t first : {0ull, 5ull}) {
      expect_bulk_fill_exact(stream, first, blocks);
    }
  }
  for (const std::int64_t blocks : kGroupBlockCounts) {
    for (const std::uint64_t first : {0ull, 5ull}) {
      expect_bulk_fill_exact(stream, first, blocks);
    }
  }
}

// Block indices are 64-bit counters split over two 32-bit words: a fill
// starting just below 2^32 carries into the high word inside the first or
// the second eight-block group of a pair (2^32 - 3, 2^32 - 12), at the
// second group's first block (2^32 - 8), and at the first block of a lone
// last group or of the scalar remainder (2^32 - 16). Fills at 2^32 - k for
// kCarryOffsets carry inside and at the edges of paired and lone
// sixteen-block groups too.
TEST(PhiloxStream, BulkFillAcrossCounterCarry) {
  const PhiloxStream stream(0x1234567890ABCDEFull, 3);
  const std::uint64_t carry = 1ull << 32;
  for (const std::uint64_t first :
       {carry - 3, carry - 8, carry - 1, carry - 12, carry - 16}) {
    for (const std::int64_t blocks : {1, 8, 9, 16, 17, 24}) {
      expect_bulk_fill_exact(stream, first, blocks);
    }
  }
  for (const std::uint64_t k : kCarryOffsets) {
    for (const std::int64_t blocks : {1, 8, 9, 24}) {
      expect_bulk_fill_exact(stream, carry - k, blocks);
    }
    for (const std::int64_t blocks : kGroupBlockCounts) {
      expect_bulk_fill_exact(stream, carry - k, blocks);
    }
  }
}

#ifdef FASTPSO_X86_SIMD
// The bulk fill hands AVX2 only what the AVX-512F groups leave, so on an
// AVX-512F host the paired AVX2 loop never runs. These tests call each
// width directly; a width the CPU lacks is skipped.

using FillForm = std::int64_t (*)(const PhiloxStream&, std::uint64_t,
                                  std::int64_t, float, float, float*);

/// `form` fills exactly the whole groups of `width` blocks, bit for bit,
/// around the group counts and across the counter carry.
void expect_width_exact(FillForm form, std::int64_t width) {
  const PhiloxStream stream(0x1234567890ABCDEFull, 3);
  std::vector<std::uint64_t> firsts = {0, 5};
  for (const std::uint64_t k : kCarryOffsets) {
    firsts.push_back((1ull << 32) - k);
  }
  for (const std::int64_t blocks : kGroupBlockCounts) {
    for (const std::uint64_t first : firsts) {
      expect_fill_exact(stream, first, blocks, blocks - blocks % width,
                        [&](std::uint64_t f, std::int64_t count, float lo,
                            float span, float* out) {
                          return form(stream, f, count, lo, span, out);
                        });
    }
  }
}

TEST(PhiloxStream, Avx512FillMatchesScalarPath) {
  if (!cpu_has_avx512()) {
    GTEST_SKIP() << "the CPU has no AVX-512F";
  }
  expect_width_exact(detail::fill_blocks_avx512, 16);
}

TEST(PhiloxStream, Avx2FillMatchesScalarPath) {
  if (!cpu_has_avx2()) {
    GTEST_SKIP() << "the CPU has no AVX2";
  }
  expect_width_exact(detail::fill_blocks_avx2, 8);
}
#endif  // FASTPSO_X86_SIMD

TEST(PhiloxStream, DoubleHas53BitResolution) {
  const PhiloxStream stream(3, 0);
  std::set<double> seen;
  for (int i = 0; i < 1000; ++i) {
    const double u = stream.uniform_double_at(i);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    seen.insert(u);
  }
  EXPECT_EQ(seen.size(), 1000u);  // no collisions at double resolution
}

// ---- SplitMix64 ----------------------------------------------------------

TEST(SplitMix, KnownFirstOutputsForSeedZero) {
  // Reference values from the canonical splitmix64 implementation
  // (Vigna / Steele et al.).
  SplitMix64 gen(0);
  EXPECT_EQ(gen.next(), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(gen.next(), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(gen.next(), 0x06C45D188009454FULL);
}

TEST(SplitMix, StatelessMixMatchesSequence) {
  SplitMix64 gen(42);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(gen.next(), SplitMix64::mix(42, i));
  }
}

TEST(SplitMix, UnitIntervalOutputs) {
  SplitMix64 gen(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = gen.next_unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

// ---- xoshiro256** -----------------------------------------------------------

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256 a(2024);
  Xoshiro256 b(2024);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += a.next() == b.next() ? 1 : 0;
  }
  EXPECT_LE(equal, 1);
}

TEST(Xoshiro, UnitIntervalAndMean) {
  Xoshiro256 gen(7);
  const int n = 100000;
  double sum = 0;
  for (int i = 0; i < n; ++i) {
    const double u = gen.next_unit();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Xoshiro, FloatPathInUnitInterval) {
  Xoshiro256 gen(8);
  for (int i = 0; i < 10000; ++i) {
    const float u = gen.next_unit_float();
    ASSERT_GE(u, 0.0f);
    ASSERT_LT(u, 1.0f);
  }
}

TEST(Xoshiro, JumpProducesDisjointStream) {
  Xoshiro256 a(77);
  Xoshiro256 b(77);
  b.jump();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += a.next() == b.next() ? 1 : 0;
  }
  EXPECT_LE(equal, 1);
}

TEST(Xoshiro, UniformRange) {
  Xoshiro256 gen(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = gen.next_uniform(-600.0, 600.0);
    EXPECT_GE(u, -600.0);
    EXPECT_LT(u, 600.0);
  }
}

}  // namespace
}  // namespace fastpso::rng
