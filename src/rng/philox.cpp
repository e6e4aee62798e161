#include "rng/philox.h"

#include "common/cpu.h"

#ifdef FASTPSO_X86_SIMD
#include <immintrin.h>
#endif

namespace fastpso::rng {

#ifdef FASTPSO_X86_SIMD
namespace {

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
  static constexpr std::int64_t kBlocks = 8;
  __m256i c0;
  __m256i c1;
  __m256i c2;
  __m256i c3;
};

/// The counters of blocks first..first+7, built in registers. Block
/// indices are 64-bit, split over two counter words.
FASTPSO_AVX2 inline void counters(std::uint64_t first,
                                  const __m256i& stream_lo,
                                  const __m256i& stream_hi, Group8& g) {
  const __m256i lo =
      _mm256_set1_epi32(static_cast<int>(static_cast<std::uint32_t>(first)));
  const __m256i hi = _mm256_set1_epi32(
      static_cast<int>(static_cast<std::uint32_t>(first >> 32)));
  const __m256i w0 =
      _mm256_add_epi32(lo, _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  // Where lo + lane wrapped past 2^32, w0 is below lo: carry one there.
  const __m256i no_wrap = _mm256_cmpeq_epi32(_mm256_max_epu32(w0, lo), w0);
  const __m256i carry = _mm256_andnot_si256(no_wrap, _mm256_set1_epi32(1));
  g = {w0, _mm256_add_epi32(hi, carry), stream_lo, stream_hi};
}

/// One Philox round (detail::philox_round) on the eight blocks of `g`.
FASTPSO_AVX2 inline void round(Group8& g, const __m256i& m0,
                               const __m256i& m1, const __m256i& key0,
                               const __m256i& key1) {
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
FASTPSO_AVX2 inline void store(const Group8& g, float lo, float span,
                               float* dst) {
  const __m256 lo_v = _mm256_set1_ps(lo);
  const __m256 span_v = _mm256_set1_ps(span);
  const __m256 r0 = scaled_unit8(g.c0, lo_v, span_v);
  const __m256 r1 = scaled_unit8(g.c1, lo_v, span_v);
  const __m256 r2 = scaled_unit8(g.c2, lo_v, span_v);
  const __m256 r3 = scaled_unit8(g.c3, lo_v, span_v);
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

/// The fill of one width G (Group8 or Group16): `blocks / w` groups of w =
/// G::kBlocks consecutive blocks, one block per lane, two groups side by
/// side: their round chains are independent, so one group's multiplies fill
/// the other's latency. An odd last group runs alone. The round keys are
/// the same for every block: broadcast once. Compiled as baseline code and
/// always inlined into its width's target entry below, so it holds vectors
/// only in locals, hands them to the group functions by reference, and
/// broadcasts a 32-bit word w into the 64-bit lanes of __m256i/__m512i as
/// w * (2^32 + 1).
template <typename G>
[[gnu::always_inline]] inline std::int64_t fill_groups(
    const PhiloxStream& stream, std::uint64_t first_block,
    std::int64_t blocks, float lo, float span, float* out) {
  using Words = decltype(G::c0);
  const auto words = [](std::uint64_t word) {
    return static_cast<long long>((word & 0xFFFFFFFFull) * 0x100000001ull);
  };
  const std::int64_t groups = blocks / G::kBlocks;
  const Words m0 = Words{} + words(detail::kPhiloxM0);
  const Words m1 = Words{} + words(detail::kPhiloxM1);
  const Words stream_lo = Words{} + words(stream.stream());
  const Words stream_hi = Words{} + words(stream.stream() >> 32);
  PhiloxKey key = stream.key();
  Words round_key0[10];
  Words round_key1[10];
  for (int r = 0; r < 10; ++r) {
    round_key0[r] = Words{} + words(key[0]);
    round_key1[r] = Words{} + words(key[1]);
    key[0] += detail::kWeyl0;
    key[1] += detail::kWeyl1;
  }
  const auto block = [first_block](std::int64_t group) {
    return first_block + static_cast<std::uint64_t>(G::kBlocks * group);
  };
  constexpr std::int64_t kValues = 4 * G::kBlocks;
  std::int64_t g = 0;
  for (; g + 2 <= groups; g += 2) {
    G a{};
    G b{};
    counters(block(g), stream_lo, stream_hi, a);
    counters(block(g + 1), stream_lo, stream_hi, b);
    for (int r = 0; r < 10; ++r) {
      round(a, m0, m1, round_key0[r], round_key1[r]);
      round(b, m0, m1, round_key0[r], round_key1[r]);
    }
    store(a, lo, span, out + kValues * g);
    store(b, lo, span, out + kValues * (g + 1));
  }
  if (g < groups) {
    G a{};
    counters(block(g), stream_lo, stream_hi, a);
    for (int r = 0; r < 10; ++r) {
      round(a, m0, m1, round_key0[r], round_key1[r]);
    }
    store(a, lo, span, out + kValues * g);
  }
  return G::kBlocks * groups;
}

}  // namespace

FASTPSO_AVX2 std::int64_t detail::fill_blocks_avx2(
    const PhiloxStream& stream, std::uint64_t first_block,
    std::int64_t blocks, float lo, float span, float* out) {
  return fill_groups<Group8>(stream, first_block, blocks, lo, span, out);
}

// gcc 12's unmasked AVX-512F intrinsics pass an uninitialized "undefined"
// vector as the unused merge source, which -Wmaybe-uninitialized flags once
// they are inlined here: a false positive from the compiler's own headers.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace {

/// mulhilo8 on sixteen lanes.
FASTPSO_AVX512 inline void mulhilo16(__m512i m, __m512i x, __m512i& hi,
                                     __m512i& lo) {
  const __m512i even = _mm512_mul_epu32(x, m);
  const __m512i odd = _mm512_mul_epu32(_mm512_srli_epi64(x, 32), m);
  lo = _mm512_mask_blend_epi32(0xAAAA, even, _mm512_slli_epi64(odd, 32));
  hi = _mm512_mask_blend_epi32(0xAAAA, _mm512_srli_epi64(even, 32), odd);
}

/// scaled_unit8 on sixteen lanes, in the same operation sequence.
FASTPSO_AVX512 inline __m512 scaled_unit16(__m512i x, __m512 lo,
                                           __m512 span) {
  const __m512 unit =
      _mm512_mul_ps(_mm512_cvtepi32_ps(_mm512_srli_epi32(x, 8)),
                    _mm512_set1_ps(1.0f / 16777216.0f));
  return _mm512_add_ps(lo, _mm512_mul_ps(span, unit));
}

/// The four counter words of sixteen consecutive blocks, one per lane.
struct Group16 {
  static constexpr std::int64_t kBlocks = 16;
  __m512i c0;
  __m512i c1;
  __m512i c2;
  __m512i c3;
};

/// counters() for blocks first..first+15.
FASTPSO_AVX512 inline void counters(std::uint64_t first,
                                    const __m512i& stream_lo,
                                    const __m512i& stream_hi, Group16& g) {
  const __m512i lo =
      _mm512_set1_epi32(static_cast<int>(static_cast<std::uint32_t>(first)));
  const __m512i hi = _mm512_set1_epi32(
      static_cast<int>(static_cast<std::uint32_t>(first >> 32)));
  const __m512i w0 = _mm512_add_epi32(
      lo, _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                            15));
  // Where lo + lane wrapped past 2^32, w0 is below lo: carry one there.
  const __mmask16 wrapped = _mm512_cmplt_epu32_mask(w0, lo);
  g = {w0, _mm512_mask_add_epi32(hi, wrapped, hi, _mm512_set1_epi32(1)),
       stream_lo, stream_hi};
}

/// round() on the sixteen blocks of `g`.
FASTPSO_AVX512 inline void round(Group16& g, const __m512i& m0,
                                 const __m512i& m1, const __m512i& key0,
                                 const __m512i& key1) {
  __m512i hi0;
  __m512i lo0;
  __m512i hi1;
  __m512i lo1;
  mulhilo16(m0, g.c0, hi0, lo0);
  mulhilo16(m1, g.c2, hi1, lo1);
  g.c0 = _mm512_xor_si512(_mm512_xor_si512(hi1, g.c1), key0);
  g.c1 = lo1;
  g.c2 = _mm512_xor_si512(_mm512_xor_si512(hi0, g.c3), key1);
  g.c3 = lo0;
}

/// The 64 scaled uniforms of `g` in block-major order. Inside each 128-bit
/// lane L, the eight-block store's unpack and shuffle steps leave block
/// 4L + j's four outputs in b<j>; the four 128-bit lanes of b0..b3 then
/// transpose 4x4, so store m gets blocks 4m..4m+3.
FASTPSO_AVX512 inline void store(const Group16& g, float lo, float span,
                                 float* dst) {
  const __m512 lo_v = _mm512_set1_ps(lo);
  const __m512 span_v = _mm512_set1_ps(span);
  const __m512 r0 = scaled_unit16(g.c0, lo_v, span_v);
  const __m512 r1 = scaled_unit16(g.c1, lo_v, span_v);
  const __m512 r2 = scaled_unit16(g.c2, lo_v, span_v);
  const __m512 r3 = scaled_unit16(g.c3, lo_v, span_v);
  const __m512 t0 = _mm512_unpacklo_ps(r0, r1);
  const __m512 t1 = _mm512_unpackhi_ps(r0, r1);
  const __m512 t2 = _mm512_unpacklo_ps(r2, r3);
  const __m512 t3 = _mm512_unpackhi_ps(r2, r3);
  const __m512 b0 = _mm512_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m512 b1 = _mm512_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m512 b2 = _mm512_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m512 b3 = _mm512_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  // Lanes 0-1 (u01, u23) and 2-3 (v01, v23) of b0, b1 and of b2, b3.
  const __m512 u01 = _mm512_shuffle_f32x4(b0, b1, _MM_SHUFFLE(1, 0, 1, 0));
  const __m512 u23 = _mm512_shuffle_f32x4(b2, b3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m512 v01 = _mm512_shuffle_f32x4(b0, b1, _MM_SHUFFLE(3, 2, 3, 2));
  const __m512 v23 = _mm512_shuffle_f32x4(b2, b3, _MM_SHUFFLE(3, 2, 3, 2));
  _mm512_storeu_ps(dst,
                   _mm512_shuffle_f32x4(u01, u23, _MM_SHUFFLE(2, 0, 2, 0)));
  _mm512_storeu_ps(dst + 16,
                   _mm512_shuffle_f32x4(u01, u23, _MM_SHUFFLE(3, 1, 3, 1)));
  _mm512_storeu_ps(dst + 32,
                   _mm512_shuffle_f32x4(v01, v23, _MM_SHUFFLE(2, 0, 2, 0)));
  _mm512_storeu_ps(dst + 48,
                   _mm512_shuffle_f32x4(v01, v23, _MM_SHUFFLE(3, 1, 3, 1)));
}

}  // namespace

FASTPSO_AVX512 std::int64_t detail::fill_blocks_avx512(
    const PhiloxStream& stream, std::uint64_t first_block,
    std::int64_t blocks, float lo, float span, float* out) {
  return fill_groups<Group16>(stream, first_block, blocks, lo, span, out);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // FASTPSO_X86_SIMD

PhiloxStream::PhiloxStream(std::uint64_t seed, std::uint64_t stream)
    : seed_(seed), stream_(stream) {
  key_ = {static_cast<std::uint32_t>(seed),
          static_cast<std::uint32_t>(seed >> 32)};
}

void PhiloxStream::fill_uniform_blocks(std::uint64_t first_block,
                                       std::int64_t blocks, float lo,
                                       float span, float* out) const {
  std::int64_t done = 0;
#ifdef FASTPSO_X86_SIMD
  if (blocks >= 16 && cpu_has_avx512()) {
    done = detail::fill_blocks_avx512(*this, first_block, blocks, lo, span,
                                      out);
  }
  if (blocks - done >= 8 && cpu_has_avx2()) {
    done += detail::fill_blocks_avx2(
        *this, first_block + static_cast<std::uint64_t>(done), blocks - done,
        lo, span, out + 4 * done);
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
