// Registered forms of the core element kernels (DESIGN.md §1).
//
// Each kernel struct is the single source of truth for its per-element
// code. Call sites (init.cpp, swarm_update.cpp, best_update.cpp,
// neighborhood.cpp) launch it with Device::launch_kernel<K>(cfg, cost, n,
// args), which accounts the launch, notes its element domain while
// capturing and runs vgpu::run_span<K> — K's span when it has one, else
// the element loop — on the eager fast path, split across host workers
// or handed to packed dispatch. A span visits the same elements and does
// the same arithmetic per element as element(), so every path produces
// the same bits (the differential suites in tests/test_engine_equiv.cpp
// and the span tests in tests/test_core_init.cpp pin it).
//
// Contract per struct (consumed by Device::launch_kernel and
// vgpu::run_span):
//   struct Args        by-value argument pack of raw pointers and scalars
//                      (packed dispatch copies it into its deferred span)
//   static element()   the per-element kernel: the reference every span
//                      must match, and the faithful path's body
//   static span()      optional batched form over [begin, end) when cheaper
//                      than the per-element loop (row segments, 8-wide
//                      Philox); it must accept any sub-range, since host
//                      fan-out and packed dispatch both split the domain
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

#include "core/swarm_update.h"
#include "rng/philox.h"
#include "vgpu/san/sanitizer.h"

namespace fastpso::core::kernels {

/// Canonical per-element velocity/position update, shared by every swarm
/// update variant (global/ring scalar paths, shared-memory tiles, tensor
/// epilogue) so results are bit-identical across all of them. Templated on
/// the velocity/position reference so it accepts both plain float lvalues
/// and sanitizer-tracked element proxies.
template <typename VRef, typename PRef>
inline void update_element(VRef&& v, PRef&& p, float l, float g, float pb,
                           float gb, const UpdateCoefficients& k) {
  vgpu::san::count_flops(10.0);
  const float pv = p;
  float nv = k.omega * static_cast<float>(v) + k.c1 * l * (pb - pv) +
             k.c2 * g * (gb - pv);
  if (k.vmax > 0.0f) {
    nv = std::clamp(nv, -k.vmax, k.vmax);  // Eq. 5 bound constraint
  }
  v = nv;
  float np = pv + nv;
  if (k.clamp_position) {
    np = std::clamp(np, k.pos_lower, k.pos_upper);
  }
  p = np;
}

/// init/fill_uniform: element b produces one whole 4-lane Philox block
/// (tail-clamped).
struct FillUniformKernel {
  struct Args {
    rng::PhiloxStream rng;
    float* out;
    std::int64_t elements;  ///< total floats; the domain is Philox blocks
    float lo;
    float span;
  };
  static void element(const Args& a, std::int64_t b) {
    const auto lanes = a.rng.uniform4_at(static_cast<std::uint64_t>(b));
    const std::int64_t base = b * 4;
    const int count =
        static_cast<int>(std::min<std::int64_t>(4, a.elements - base));
    for (int lane = 0; lane < count; ++lane) {
      a.out[base + lane] = a.lo + a.span * lanes[lane];
    }
  }
  /// Whole blocks go through the bulk Philox fill (eight blocks per step
  /// where the CPU allows); only a clamped tail block runs element().
  static void span(const void* args, std::int64_t begin, std::int64_t end) {
    const Args& a = *static_cast<const Args*>(args);
    const std::int64_t whole_end = std::min(end, a.elements / 4);
    if (begin < whole_end) {
      a.rng.fill_uniform_blocks(static_cast<std::uint64_t>(begin),
                                whole_end - begin, a.lo, a.span,
                                a.out + begin * 4);
    }
    for (std::int64_t b = std::max(begin, whole_end); b < end; ++b) {
      element(a, b);
    }
  }
};

/// init/fill_uniform_slice: the sharded form of init/fill_uniform.
/// out[0, count) holds GLOBAL elements [offset, offset+count) of the
/// logical whole-swarm array; element b is the b-th global Philox block
/// overlapping the slice (blocks may straddle shard boundaries — only
/// in-range lanes are written). The produced bits equal the corresponding
/// slice of a whole-array fill with the same seed/stream for ANY shard
/// layout, which is what makes sharded runs (core/multi_device.h)
/// bitwise-identical to single-device runs.
struct FillUniformSliceKernel {
  struct Args {
    rng::PhiloxStream rng;
    float* out;           ///< slice storage: out[0] is global element offset
    std::int64_t offset;  ///< first global element of the slice
    std::int64_t count;   ///< slice length in elements
    float lo;
    float span;
  };
  static void element(const Args& a, std::int64_t b) {
    const std::int64_t gb = a.offset / 4 + b;
    const auto lanes = a.rng.uniform4_at(static_cast<std::uint64_t>(gb));
    const std::int64_t base = gb * 4;
    for (int lane = 0; lane < 4; ++lane) {
      const std::int64_t g = base + lane;
      if (g >= a.offset && g < a.offset + a.count) {
        a.out[g - a.offset] = a.lo + a.span * lanes[lane];
      }
    }
  }
  /// Blocks wholly inside the slice go through the bulk Philox fill; the
  /// (at most two) boundary blocks run element().
  static void span(const void* args, std::int64_t begin, std::int64_t end) {
    const Args& a = *static_cast<const Args*>(args);
    const std::int64_t first = a.offset / 4;
    const std::int64_t whole_begin = std::min(
        end, std::max(begin, a.offset % 4 == 0 ? std::int64_t{0} : 1));
    const std::int64_t whole_end = std::max(
        whole_begin, std::min(end, (a.offset + a.count) / 4 - first));
    for (std::int64_t b = begin; b < whole_begin; ++b) {
      element(a, b);
    }
    if (whole_begin < whole_end) {
      a.rng.fill_uniform_blocks(
          static_cast<std::uint64_t>(first + whole_begin),
          whole_end - whole_begin, a.lo, a.span,
          a.out + (first + whole_begin) * 4 - a.offset);
    }
    for (std::int64_t b = whole_end; b < end; ++b) {
      element(a, b);
    }
  }
};

/// init/pbest_reset: per-particle reset of the best-so-far state.
struct PbestResetKernel {
  struct Args {
    float* pbest_err;
    float* perror;
    const float* positions;
    float* pbest_pos;
    int d;
  };
  static void element(const Args& a, std::int64_t i) {
    a.pbest_err[i] = std::numeric_limits<float>::infinity();
    a.perror[i] = 0.0f;
    for (int j = 0; j < a.d; ++j) {
      a.pbest_pos[i * a.d + j] = a.positions[i * a.d + j];
    }
  }
};

/// best_update/compare_flag: branchless pbest compare + improved flag.
struct PbestCompareKernel {
  struct Args {
    const float* perror;
    float* pbest_err;
    std::uint8_t* improved;
  };
  static void element(const Args& a, std::int64_t i) {
    const float pe = a.perror[i];
    const float pb = a.pbest_err[i];
    const bool better = pe < pb;
    a.improved[i] = better ? 1 : 0;
    a.pbest_err[i] = better ? pe : pb;
  }
};

/// best_update/gather: flagged particles copy their position row into
/// pbest_pos.
struct PbestGatherKernel {
  struct Args {
    const std::uint8_t* improved;
    const float* positions;
    float* pbest_pos;
    int d;
  };
  static void element(const Args& a, std::int64_t i) {
    if (a.improved[i]) {
      for (int j = 0; j < a.d; ++j) {
        a.pbest_pos[i * a.d + j] = a.positions[i * a.d + j];
      }
    }
  }
};

/// best_update/gbest_copy: copies the winning pbest row into gbest_pos.
struct GbestCopyKernel {
  struct Args {
    const float* src;
    float* dst;
  };
  static void element(const Args& a, std::int64_t j) { a.dst[j] = a.src[j]; }
};

/// swarm_update/global: per-element update against the gbest attractor.
struct SwarmUpdateGlobalKernel {
  struct Args {
    float* velocities;
    float* positions;
    const float* l;
    const float* g;
    const float* pbest_pos;
    const float* gbest_pos;
    int d;
    UpdateCoefficients coeff;
  };
  static void element(const Args& a, std::int64_t i) {
    const int col = static_cast<int>(i % a.d);
    update_element(a.velocities[i], a.positions[i], a.l[i], a.g[i],
                   a.pbest_pos[i], a.gbest_pos[col], a.coeff);
  }
  /// Row-segment form: same elements in the same ascending order and the
  /// same arithmetic per element, but the 64-bit i%d is hoisted to one
  /// carried column counter — a per-element integer divide otherwise
  /// dominates the loop. Also the body of the shared-memory variant's fast
  /// path (swarm_update.cpp), whose tiles compute exactly these elements.
  static void span(const void* args, std::int64_t begin, std::int64_t end) {
    const Args a = *static_cast<const Args*>(args);
    std::int64_t i = begin;
    int col = static_cast<int>(i % a.d);
    while (i < end) {
      const std::int64_t stop = std::min<std::int64_t>(end, i + (a.d - col));
      for (; i < stop; ++i, ++col) {
        update_element(a.velocities[i], a.positions[i], a.l[i], a.g[i],
                       a.pbest_pos[i], a.gbest_pos[col], a.coeff);
      }
      col = 0;
    }
  }
};

/// swarm_update/ring: the attractor is a gather out of pbest_pos steered by
/// the ring-neighborhood index array.
struct SwarmUpdateRingKernel {
  struct Args {
    float* velocities;
    float* positions;
    const float* l;
    const float* g;
    const float* pbest_pos;
    const std::int32_t* nbest_idx;
    int d;
    UpdateCoefficients coeff;
  };
  static void element(const Args& a, std::int64_t i) {
    const std::int64_t row = i / a.d;
    const int col = static_cast<int>(i % a.d);
    const float attractor =
        a.pbest_pos[static_cast<std::int64_t>(a.nbest_idx[row]) * a.d + col];
    update_element(a.velocities[i], a.positions[i], a.l[i], a.g[i],
                   a.pbest_pos[i], attractor, a.coeff);
  }
  /// Row-segment form (see SwarmUpdateGlobalKernel::span): additionally
  /// hoists the neighborhood gather's row base to one load per row.
  static void span(const void* args, std::int64_t begin, std::int64_t end) {
    const Args a = *static_cast<const Args*>(args);
    std::int64_t i = begin;
    std::int64_t row = i / a.d;
    int col = static_cast<int>(i % a.d);
    while (i < end) {
      const std::int64_t stop = std::min<std::int64_t>(end, i + (a.d - col));
      const float* attractor_row =
          a.pbest_pos + static_cast<std::int64_t>(a.nbest_idx[row]) * a.d;
      for (; i < stop; ++i, ++col) {
        update_element(a.velocities[i], a.positions[i], a.l[i], a.g[i],
                       a.pbest_pos[i], attractor_row[col], a.coeff);
      }
      col = 0;
      ++row;
    }
  }
};

/// neighborhood/ring_nbest: per-particle argmin over the ring window of
/// pbest errors. Deterministic tie-breaking (self first, then nearer
/// neighbors, left before right) — only strictly better neighbors replace
/// the incumbent.
struct RingNbestKernel {
  struct Args {
    const float* pbest_err;
    std::int32_t* out;
    int n;
    int neighbors;
  };
  static void element(const Args& a, std::int64_t i) {
    std::int32_t best = static_cast<std::int32_t>(i);
    float best_err = a.pbest_err[i];
    for (int off = 1; off <= a.neighbors; ++off) {
      for (int sign : {-1, 1}) {
        const std::int64_t j = (i + sign * off + a.n) % a.n;
        if (a.pbest_err[j] < best_err) {
          best = static_cast<std::int32_t>(j);
          best_err = a.pbest_err[j];
        }
      }
    }
    a.out[i] = best;
  }
};

}  // namespace fastpso::core::kernels
