// Philox4x32-10 counter-based random number generator (Salmon et al.,
// "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11), implemented from
// scratch.
//
// This is the substrate for the paper's Step (i) — "parallel techniques to
// initialize swarm particles with fast random number generation" — and for
// regenerating the per-iteration random-weight matrices L and G. A
// counter-based generator gives every (iteration, element) pair its own
// independent, reproducible stream with no shared mutable state, which is
// exactly what a massively parallel initializer needs: thread t can compute
// random value #i directly from (key, counter=i) without any sequencing.
#pragma once

#include <array>
#include <cstdint>

#include "common/cpu.h"

namespace fastpso::rng {

/// One Philox4x32 counter block: four 32-bit lanes.
using PhiloxBlock = std::array<std::uint32_t, 4>;
/// Philox4x32 key: two 32-bit lanes.
using PhiloxKey = std::array<std::uint32_t, 2>;

namespace detail {

inline constexpr std::uint32_t kPhiloxM0 = 0xD2511F53u;
inline constexpr std::uint32_t kPhiloxM1 = 0xCD9E8D57u;
inline constexpr std::uint32_t kWeyl0 = 0x9E3779B9u;  // golden ratio
inline constexpr std::uint32_t kWeyl1 = 0xBB67AE85u;  // sqrt(3) - 1

/// 32x32 -> 64 multiply split into (hi, lo).
inline void mulhilo(std::uint32_t a, std::uint32_t b, std::uint32_t& hi,
                    std::uint32_t& lo) {
  const std::uint64_t product =
      static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b);
  hi = static_cast<std::uint32_t>(product >> 32);
  lo = static_cast<std::uint32_t>(product);
}

inline PhiloxBlock philox_round(const PhiloxBlock& ctr, const PhiloxKey& key) {
  std::uint32_t hi0;
  std::uint32_t lo0;
  std::uint32_t hi1;
  std::uint32_t lo1;
  mulhilo(kPhiloxM0, ctr[0], hi0, lo0);
  mulhilo(kPhiloxM1, ctr[2], hi1, lo1);
  return {hi1 ^ ctr[1] ^ key[0], lo1, hi0 ^ ctr[3] ^ key[1], lo0};
}

}  // namespace detail

/// Computes one Philox4x32-10 block: 10 rounds of the Philox S-P network.
/// Pure function: identical (counter, key) always produces identical output.
/// Inline (pure integer math) so per-element draws in the update kernels
/// fuse into the surrounding loop.
inline PhiloxBlock philox4x32(PhiloxBlock counter, PhiloxKey key) {
  for (int round = 0; round < 10; ++round) {
    counter = detail::philox_round(counter, key);
    key[0] += detail::kWeyl0;
    key[1] += detail::kWeyl1;
  }
  return counter;
}

/// Convenience stream view over Philox: produces the i-th random uint32 /
/// float of a keyed sequence with O(1) random access.
///
/// Layout: the 64-bit index is split into (block = index / 4, lane =
/// index % 4); `block` is placed in counter lanes 0..1 and the stream id in
/// lanes 2..3, so distinct streams never collide.
class PhiloxStream {
 public:
  /// `seed` selects the key; `stream` separates independent sequences
  /// (e.g. one per matrix per iteration).
  explicit PhiloxStream(std::uint64_t seed, std::uint64_t stream = 0);

  /// The i-th uint32 of this stream.
  [[nodiscard]] std::uint32_t uint_at(std::uint64_t index) const;

  /// The i-th float, uniform in [0, 1). Uses the top 24 bits so every
  /// representable value is exact in float.
  [[nodiscard]] float uniform_at(std::uint64_t index) const;

  /// The i-th double, uniform in [0, 1) (53 bits from two uint32 draws —
  /// consumes indices 2*i and 2*i+1 of the underlying uint stream).
  [[nodiscard]] double uniform_double_at(std::uint64_t index) const;

  /// Uniform in [lo, hi).
  [[nodiscard]] float uniform_at(std::uint64_t index, float lo,
                                 float hi) const;

  /// All four uniforms of one Philox block: element `block_index*4 + lane`
  /// equals uniform_at(block_index*4 + lane). One Philox evaluation instead
  /// of four — the fast path for bulk fills.
  [[nodiscard]] std::array<float, 4> uniform4_at(
      std::uint64_t block_index) const;

  /// Bulk fill of whole blocks: out[k] = lo + span * uniform_at(4 *
  /// first_block + k) for k in [0, 4 * blocks), bit for bit. As one-time
  /// CPU checks allow, it runs groups of sixteen blocks with AVX-512F, then
  /// groups of eight with AVX2, one block per lane and two groups in
  /// flight; the other blocks take uniform4_at. All are exact: Philox is
  /// integer math and the scaling is one unfused multiply and add per
  /// value.
  void fill_uniform_blocks(std::uint64_t first_block, std::int64_t blocks,
                           float lo, float span, float* out) const;

  /// The pair (uniform_at(2*pair_index), uniform_at(2*pair_index+1)) from a
  /// single Philox evaluation — the fast path for per-element (r1, r2)
  /// draws in the update kernels.
  [[nodiscard]] std::array<float, 2> uniform_pair_at(
      std::uint64_t pair_index) const;

  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] std::uint64_t stream() const { return stream_; }
  [[nodiscard]] PhiloxKey key() const { return key_; }

 private:
  [[nodiscard]] PhiloxBlock block_at(std::uint64_t block_index) const;

  std::uint64_t seed_;
  std::uint64_t stream_;
  PhiloxKey key_;
};

namespace detail {
#ifdef FASTPSO_X86_SIMD
/// One SIMD width of PhiloxStream::fill_uniform_blocks, entered without
/// the CPU check: the caller makes sure the CPU has the feature. It fills
/// the first blocks - blocks % w blocks in groups of w = 8 (AVX2) or 16
/// (AVX-512F) and returns that count. The bulk fill chains them; tests pin
/// each width.
FASTPSO_AVX2 std::int64_t fill_blocks_avx2(const PhiloxStream& stream,
                                           std::uint64_t first_block,
                                           std::int64_t blocks, float lo,
                                           float span, float* out);
FASTPSO_AVX512 std::int64_t fill_blocks_avx512(const PhiloxStream& stream,
                                               std::uint64_t first_block,
                                               std::int64_t blocks, float lo,
                                               float span, float* out);
#endif
}  // namespace detail

/// Converts a uint32 to a float uniform in [0,1) using the top 24 bits.
[[nodiscard]] inline float uint32_to_unit_float(std::uint32_t x) {
  return static_cast<float>(x >> 8) * (1.0f / 16777216.0f);
}

/// Converts two uint32s to a double uniform in [0,1) using 53 bits.
[[nodiscard]] inline double uint32x2_to_unit_double(std::uint32_t hi,
                                                    std::uint32_t lo) {
  const std::uint64_t bits =
      (static_cast<std::uint64_t>(hi) << 21) ^ (lo >> 11);
  return static_cast<double>(bits & ((1ULL << 53) - 1)) *
         (1.0 / 9007199254740992.0);
}

// ---- inline definitions (hot paths: one call per element in the update
// and initialization kernels) ------------------------------------------------

inline PhiloxBlock PhiloxStream::block_at(std::uint64_t block_index) const {
  const PhiloxBlock counter = {
      static_cast<std::uint32_t>(block_index),
      static_cast<std::uint32_t>(block_index >> 32),
      static_cast<std::uint32_t>(stream_),
      static_cast<std::uint32_t>(stream_ >> 32),
  };
  return philox4x32(counter, key_);
}

inline std::uint32_t PhiloxStream::uint_at(std::uint64_t index) const {
  const PhiloxBlock block = block_at(index / 4);
  return block[index % 4];
}

inline float PhiloxStream::uniform_at(std::uint64_t index) const {
  return uint32_to_unit_float(uint_at(index));
}

inline double PhiloxStream::uniform_double_at(std::uint64_t index) const {
  return uint32x2_to_unit_double(uint_at(2 * index), uint_at(2 * index + 1));
}

inline float PhiloxStream::uniform_at(std::uint64_t index, float lo,
                                      float hi) const {
  return lo + (hi - lo) * uniform_at(index);
}

inline std::array<float, 4> PhiloxStream::uniform4_at(
    std::uint64_t block_index) const {
  const PhiloxBlock block = block_at(block_index);
  return {uint32_to_unit_float(block[0]), uint32_to_unit_float(block[1]),
          uint32_to_unit_float(block[2]), uint32_to_unit_float(block[3])};
}

inline std::array<float, 2> PhiloxStream::uniform_pair_at(
    std::uint64_t pair_index) const {
  const PhiloxBlock block = block_at(pair_index / 2);
  const int lane = static_cast<int>(pair_index % 2) * 2;
  return {uint32_to_unit_float(block[lane]),
          uint32_to_unit_float(block[lane + 1])};
}

}  // namespace fastpso::rng
