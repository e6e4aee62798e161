#include "rng/philox.h"

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

/// The four counter words of eight consecutive blocks, one block per lane.
struct Group8 {
  __m256i c0;
  __m256i c1;
  __m256i c2;
  __m256i c3;
};

/// The counters of blocks first..first+7, built in registers. Block
/// indices are 64-bit, split over two counter words.
FASTPSO_AVX2 inline Group8 counters8(std::uint64_t first, __m256i stream_lo,
                                     __m256i stream_hi) {
  const __m256i lo =
      _mm256_set1_epi32(static_cast<int>(static_cast<std::uint32_t>(first)));
  const __m256i hi = _mm256_set1_epi32(
      static_cast<int>(static_cast<std::uint32_t>(first >> 32)));
  const __m256i w0 =
      _mm256_add_epi32(lo, _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  // Where lo + lane wrapped past 2^32, w0 is below lo: carry one there.
  const __m256i no_wrap = _mm256_cmpeq_epi32(_mm256_max_epu32(w0, lo), w0);
  const __m256i carry = _mm256_andnot_si256(no_wrap, _mm256_set1_epi32(1));
  return {w0, _mm256_add_epi32(hi, carry), stream_lo, stream_hi};
}

/// One Philox round (detail::philox_round) on the eight blocks of `g`.
FASTPSO_AVX2 inline void round8(Group8& g, __m256i m0, __m256i m1,
                                __m256i key0, __m256i key1) {
  __m256i hi0;
  __m256i lo0;
  __m256i hi1;
  __m256i lo1;
  mulhilo8(m0, g.c0, hi0, lo0);
  mulhilo8(m1, g.c2, hi1, lo1);
  g.c0 = _mm256_xor_si256(_mm256_xor_si256(hi1, g.c1), key0);
  g.c1 = lo1;
  g.c2 = _mm256_xor_si256(_mm256_xor_si256(hi0, g.c3), key1);
  g.c3 = lo0;
}

/// The 32 scaled uniforms of `g` in block-major order. Word c<k> holds
/// output k of the eight blocks, so the words transpose 4x8 -> 8x4.
FASTPSO_AVX2 inline void store8(const Group8& g, __m256 lo, __m256 span,
                                float* dst) {
  const __m256 r0 = scaled_unit8(g.c0, lo, span);
  const __m256 r1 = scaled_unit8(g.c1, lo, span);
  const __m256 r2 = scaled_unit8(g.c2, lo, span);
  const __m256 r3 = scaled_unit8(g.c3, lo, span);
  const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
  const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
  const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
  const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
  const __m256 b04 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 b15 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 b26 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 b37 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  _mm256_storeu_ps(dst, _mm256_permute2f128_ps(b04, b15, 0x20));
  _mm256_storeu_ps(dst + 8, _mm256_permute2f128_ps(b26, b37, 0x20));
  _mm256_storeu_ps(dst + 16, _mm256_permute2f128_ps(b04, b15, 0x31));
  _mm256_storeu_ps(dst + 24, _mm256_permute2f128_ps(b26, b37, 0x31));
}

/// `groups` x 8 consecutive Philox blocks from `first`, eight blocks per
/// group, one block per lane. A step runs the rounds of two groups side by
/// side: their chains are independent, so one group's multiplies fill the
/// other's latency. An odd last group runs alone.
FASTPSO_AVX2 void fill_blocks_avx2(std::uint64_t first, std::int64_t groups,
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
  const auto block = [first](std::int64_t group) {
    return first + 8 * static_cast<std::uint64_t>(group);
  };
  std::int64_t g = 0;
  for (; g + 2 <= groups; g += 2) {
    Group8 a = counters8(block(g), stream_lo, stream_hi);
    Group8 b = counters8(block(g + 1), stream_lo, stream_hi);
    for (int round = 0; round < 10; ++round) {
      round8(a, m0, m1, round_key0[round], round_key1[round]);
      round8(b, m0, m1, round_key0[round], round_key1[round]);
    }
    store8(a, lo_v, span_v, out + 32 * g);
    store8(b, lo_v, span_v, out + 32 * (g + 1));
  }
  if (g < groups) {
    Group8 a = counters8(block(g), stream_lo, stream_hi);
    for (int round = 0; round < 10; ++round) {
      round8(a, m0, m1, round_key0[round], round_key1[round]);
    }
    store8(a, lo_v, span_v, out + 32 * g);
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
    const std::int64_t groups = blocks / 8;
    fill_blocks_avx2(first_block, groups, stream_, key_, lo, span, out);
    done = 8 * groups;
  }
#endif
  for (std::int64_t b = done; b < blocks; ++b) {
    const auto lanes = uniform4_at(first_block + static_cast<std::uint64_t>(b));
    for (int lane = 0; lane < 4; ++lane) {
      out[4 * b + lane] = lo + span * lanes[lane];
    }
  }
}

}  // namespace fastpso::rng
