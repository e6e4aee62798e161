// FNV-1a-64 over the bit patterns of float sequences: a compact literal pin
// for results that must not move by one bit (gbest positions, per-iteration
// histories).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace fastpso {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/// Folds the little-endian bytes of every value's bits into `hash`; chain
/// calls to digest several sequences in order.
inline std::uint64_t fnv1a_bits(const std::vector<float>& values,
                                std::uint64_t hash = kFnvOffset) {
  for (const float value : values) {
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(value);
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  }
  return hash;
}

}  // namespace fastpso
