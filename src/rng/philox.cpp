#include "rng/philox.h"

#include <cmath>
#include <numbers>

#include "common/cpu.h"

#ifdef FASTPSO_X86_AVX2
#include <immintrin.h>
#endif

namespace fastpso::rng {

#ifdef FASTPSO_X86_AVX2
namespace {

#define FASTPSO_AVX2 __attribute__((target("avx2")))

/// detail::mulhilo on eight lanes: the 32x32 -> 64-bit products of `x`
/// with the constant `m`, split into high and low words.
FASTPSO_AVX2 inline void mulhilo8(__m256i m, __m256i x, __m256i& hi,
                                  __m256i& lo) {
  const __m256i even = _mm256_mul_epu32(x, m);
  const __m256i odd = _mm256_mul_epu32(_mm256_srli_epi64(x, 32), m);
  lo = _mm256_blend_epi32(even, _mm256_slli_epi64(odd, 32), 0xAA);
  hi = _mm256_blend_epi32(_mm256_srli_epi64(even, 32), odd, 0xAA);
}

/// lo + span * uint32_to_unit_float(x) on eight lanes, with the scalar
/// path's exact operation sequence (x >> 8 is exact in float, the 2^-24
/// scale is exact, then one multiply and one add).
FASTPSO_AVX2 inline __m256 scaled_unit8(__m256i x, __m256 lo, __m256 span) {
  const __m256 unit =
      _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_srli_epi32(x, 8)),
                    _mm256_set1_ps(1.0f / 16777216.0f));
  return _mm256_add_ps(lo, _mm256_mul_ps(span, unit));
}

/// `steps` x 8 consecutive Philox blocks from `first`: the counters of
/// eight blocks ride in the lanes of four vectors (one per counter word),
/// and the outputs are transposed back to block-major order.
FASTPSO_AVX2 void fill_blocks_avx2(std::uint64_t first, std::int64_t steps,
                                   std::uint64_t stream, PhiloxKey key,
                                   float lo, float span, float* out) {
  const __m256i m0 = _mm256_set1_epi32(static_cast<int>(detail::kPhiloxM0));
  const __m256i m1 = _mm256_set1_epi32(static_cast<int>(detail::kPhiloxM1));
  const __m256i stream_lo =
      _mm256_set1_epi32(static_cast<int>(static_cast<std::uint32_t>(stream)));
  const __m256i stream_hi = _mm256_set1_epi32(
      static_cast<int>(static_cast<std::uint32_t>(stream >> 32)));
  // The round keys are the same for every block: broadcast them once.
  __m256i round_key0[10];
  __m256i round_key1[10];
  for (int round = 0; round < 10; ++round) {
    round_key0[round] = _mm256_set1_epi32(static_cast<int>(key[0]));
    round_key1[round] = _mm256_set1_epi32(static_cast<int>(key[1]));
    key[0] += detail::kWeyl0;
    key[1] += detail::kWeyl1;
  }
  const __m256 lo_v = _mm256_set1_ps(lo);
  const __m256 span_v = _mm256_set1_ps(span);
  for (std::int64_t s = 0; s < steps; ++s) {
    // Block indices are 64-bit: the low and high counter words are split
    // per lane so a step may straddle a 2^32 carry.
    alignas(32) std::uint32_t index_lo[8];
    alignas(32) std::uint32_t index_hi[8];
    const std::uint64_t base = first + 8 * static_cast<std::uint64_t>(s);
    for (int j = 0; j < 8; ++j) {
      const std::uint64_t b = base + static_cast<std::uint64_t>(j);
      index_lo[j] = static_cast<std::uint32_t>(b);
      index_hi[j] = static_cast<std::uint32_t>(b >> 32);
    }
    __m256i c0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(index_lo));
    __m256i c1 = _mm256_load_si256(reinterpret_cast<const __m256i*>(index_hi));
    __m256i c2 = stream_lo;
    __m256i c3 = stream_hi;
    for (int round = 0; round < 10; ++round) {
      __m256i hi0;
      __m256i lo0;
      __m256i hi1;
      __m256i lo1;
      mulhilo8(m0, c0, hi0, lo0);
      mulhilo8(m1, c2, hi1, lo1);
      c0 = _mm256_xor_si256(_mm256_xor_si256(hi1, c1), round_key0[round]);
      c1 = lo1;
      c2 = _mm256_xor_si256(_mm256_xor_si256(hi0, c3), round_key1[round]);
      c3 = lo0;
    }
    // r<k> holds output lane k of blocks 0..7; transpose 4x8 -> 8x4.
    const __m256 r0 = scaled_unit8(c0, lo_v, span_v);
    const __m256 r1 = scaled_unit8(c1, lo_v, span_v);
    const __m256 r2 = scaled_unit8(c2, lo_v, span_v);
    const __m256 r3 = scaled_unit8(c3, lo_v, span_v);
    const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
    const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
    const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
    const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
    const __m256 b04 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 b15 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 b26 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 b37 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    float* dst = out + 32 * s;
    _mm256_storeu_ps(dst, _mm256_permute2f128_ps(b04, b15, 0x20));
    _mm256_storeu_ps(dst + 8, _mm256_permute2f128_ps(b26, b37, 0x20));
    _mm256_storeu_ps(dst + 16, _mm256_permute2f128_ps(b04, b15, 0x31));
    _mm256_storeu_ps(dst + 24, _mm256_permute2f128_ps(b26, b37, 0x31));
  }
}

#undef FASTPSO_AVX2

}  // namespace
#endif  // FASTPSO_X86_AVX2

PhiloxStream::PhiloxStream(std::uint64_t seed, std::uint64_t stream)
    : seed_(seed), stream_(stream) {
  key_ = {static_cast<std::uint32_t>(seed),
          static_cast<std::uint32_t>(seed >> 32)};
}

void PhiloxStream::fill_uniform_blocks(std::uint64_t first_block,
                                       std::int64_t blocks, float lo,
                                       float span, float* out) const {
  std::int64_t done = 0;
#ifdef FASTPSO_X86_AVX2
  if (blocks >= 8 && cpu_has_avx2()) {
    const std::int64_t steps = blocks / 8;
    fill_blocks_avx2(first_block, steps, stream_, key_, lo, span, out);
    done = 8 * steps;
  }
#endif
  for (std::int64_t b = done; b < blocks; ++b) {
    const auto lanes = uniform4_at(first_block + static_cast<std::uint64_t>(b));
    for (int lane = 0; lane < 4; ++lane) {
      out[4 * b + lane] = lo + span * lanes[lane];
    }
  }
}

float PhiloxStream::normal_at(std::uint64_t index) const {
  // Box–Muller; u1 is kept away from 0 so the log is finite.
  const float u1 = uniform_at(2 * index) + 1.0e-12f;
  const float u2 = uniform_at(2 * index + 1);
  const float radius = std::sqrt(-2.0f * std::log(u1));
  const float theta = 2.0f * std::numbers::pi_v<float> * u2;
  return radius * std::cos(theta);
}

}  // namespace fastpso::rng
