// Registered forms of the core element kernels (DESIGN.md §1).
//
// Each kernel struct is the single source of truth for its per-element
// code. Call sites (init.cpp, swarm_update.cpp, best_update.cpp,
// neighborhood.cpp, eval_schema.h) launch it with
// Device::launch_kernel<K>(cfg, cost, n, args), the one launch path on both
// engines: it accounts the launch (recording its node while capturing)
// and runs the body. The eager fast path runs
// vgpu::run_span<K> — K's span when it has one, else the element loop —
// inline, split across host workers, or handed to packed dispatch. The
// faithful per-thread engine (FASTPSO_FAST_PATH=0, sanitizer Sessions)
// grid-strides element() over K's tracked views when K declares them. A
// span visits the same elements and does the same arithmetic per element
// as element(), so every path produces the same bits (the differential
// suites in tests/test_engine_equiv.cpp and the span tests in
// tests/test_core_init.cpp pin it).
//
// Contract per struct (consumed by Device::launch_kernel and
// vgpu::run_span):
//   struct Args        by-value argument pack of raw pointers and scalars
//                      (packed dispatch copies it into its deferred span);
//                      a kernel with views declares it as Pack<Raw>
//   static element()   the per-element kernel, a template over the pack:
//                      the reference every span must match and the body
//                      both engines run; it counts its own flops
//                      (san::count_flops) for the sanitizer's cost audit
//   static track()     optional: track(args, n) returns the same pack over
//                      san::Tracked views (Pack<View>), registering each
//                      buffer and coverage expectation the sanitizer
//                      audits; launch_kernel calls it before the launch
//   static span()      optional batched form over [begin, end) when cheaper
//                      than the per-element loop (row segments, bulk
//                      Philox fills); it must accept any sub-range, since
//                      host fan-out and packed dispatch both split the domain
//   static grain()     optional: grain(args) is the smallest range a host
//                      worker runs (default vgpu::kHostGrain elements); a
//                      kernel over particle rows (EvalKernel, the pbest
//                      reset and gather) returns vgpu::row_grain(d)
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "core/init.h"
#include "core/swarm_update.h"
#include "rng/philox.h"
#include "vgpu/parallel.h"
#include "vgpu/san/tracked.h"

namespace fastpso::core::kernels {

namespace san = vgpu::san;

/// Member types of an argument pack: the raw pointers the fast path runs
/// over, and the sanitizer-tracked views the faithful engine runs over.
template <typename T>
using Raw = T*;
template <typename T>
using View = san::Tracked<T>;

/// Canonical per-element velocity/position update, shared by every swarm
/// update variant (global/ring scalar paths, shared-memory tiles, tensor
/// epilogue) so results are bit-identical across all of them. Templated on
/// the velocity/position reference so it accepts both plain float lvalues
/// and sanitizer-tracked element proxies.
template <typename VRef, typename PRef>
inline void update_element(VRef&& v, PRef&& p, float l, float g, float pb,
                           float gb, const UpdateCoefficients& k) {
  san::count_flops(10.0);
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
  template <template <typename> class P>
  struct Pack {
    rng::PhiloxStream rng;
    P<float> out;
    std::int64_t elements;  ///< total floats; the domain is Philox blocks
    float lo;
    float span;
  };
  using Args = Pack<Raw>;
  template <typename A>
  static void element(const A& a, std::int64_t b) {
    const auto lanes = a.rng.uniform4_at(static_cast<std::uint64_t>(b));
    const std::int64_t base = b * 4;
    const int count =
        static_cast<int>(std::min<std::int64_t>(4, a.elements - base));
    san::count_flops(kPhiloxFlopsPerValue * count);
    for (int lane = 0; lane < count; ++lane) {
      a.out[base + lane] = a.lo + a.span * lanes[lane];
    }
  }
  static Pack<View> track(const Args& a, std::int64_t /*blocks*/) {
    const auto count = static_cast<std::size_t>(a.elements);
    const Pack<View> v{a.rng, san::track(a.out, count, "fill_out"),
                       a.elements, a.lo, a.span};
    san::expect_writes_exactly_once(v.out);
    return v;
  }
  /// Whole blocks go through the bulk Philox fill (sixteen or eight blocks
  /// per step where the CPU allows); only a clamped tail block runs
  /// element().
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
  template <template <typename> class P>
  struct Pack {
    rng::PhiloxStream rng;
    P<float> out;         ///< slice storage: out[0] is global element offset
    std::int64_t offset;  ///< first global element of the slice
    std::int64_t count;   ///< slice length in elements
    float lo;
    float span;
  };
  using Args = Pack<Raw>;
  template <typename A>
  static void element(const A& a, std::int64_t b) {
    const std::int64_t gb = a.offset / 4 + b;
    const auto lanes = a.rng.uniform4_at(static_cast<std::uint64_t>(gb));
    const std::int64_t base = gb * 4;
    for (int lane = 0; lane < 4; ++lane) {
      const std::int64_t g = base + lane;
      if (g >= a.offset && g < a.offset + a.count) {
        san::count_flops(kPhiloxFlopsPerValue);
        a.out[g - a.offset] = a.lo + a.span * lanes[lane];
      }
    }
  }
  static Pack<View> track(const Args& a, std::int64_t /*blocks*/) {
    const auto count = static_cast<std::size_t>(a.count);
    const Pack<View> v{a.rng, san::track(a.out, count, "fill_out"), a.offset,
                       a.count, a.lo, a.span};
    san::expect_writes_exactly_once(v.out);
    return v;
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
  template <template <typename> class P>
  struct Pack {
    P<float> pbest_err;
    P<float> perror;
    P<const float> positions;
    P<float> pbest_pos;
    int d;
  };
  using Args = Pack<Raw>;
  template <typename A>
  static void element(const A& a, std::int64_t i) {
    a.pbest_err[i] = std::numeric_limits<float>::infinity();
    a.perror[i] = 0.0f;
    for (int j = 0; j < a.d; ++j) {
      a.pbest_pos[i * a.d + j] = a.positions[i * a.d + j];
    }
  }
  static Pack<View> track(const Args& a, std::int64_t n) {
    const auto rows = static_cast<std::size_t>(n);
    const std::size_t elements = rows * static_cast<std::size_t>(a.d);
    const Pack<View> v{san::track(a.pbest_err, rows, "pbest_err"),
                       san::track(a.perror, rows, "perror"),
                       san::track(a.positions, elements, "positions"),
                       san::track(a.pbest_pos, elements, "pbest_pos"),
                       a.d};
    san::expect_writes_exactly_once(v.pbest_err);
    san::expect_writes_exactly_once(v.perror);
    san::expect_writes_exactly_once(v.pbest_pos);
    return v;
  }
  static std::int64_t grain(const Args& a) { return vgpu::row_grain(a.d); }
};

/// best_update/compare_flag: branchless pbest compare + improved flag.
struct PbestCompareKernel {
  template <template <typename> class P>
  struct Pack {
    P<const float> perror;
    P<float> pbest_err;
    P<std::uint8_t> improved;
  };
  using Args = Pack<Raw>;
  template <typename A>
  static void element(const A& a, std::int64_t i) {
    san::count_flops(1.0);
    const float pe = a.perror[i];
    const float pb = a.pbest_err[i];
    const bool better = pe < pb;
    a.improved[i] = better ? 1 : 0;
    // Unconditional select store: matches the declared write traffic (and
    // the branchless store a real kernel would use to avoid divergence).
    a.pbest_err[i] = better ? pe : pb;
  }
  static Pack<View> track(const Args& a, std::int64_t n) {
    const auto rows = static_cast<std::size_t>(n);
    const Pack<View> v{san::track(a.perror, rows, "perror"),
                       san::track(a.pbest_err, rows, "pbest_err"),
                       san::track(a.improved, rows, "improved")};
    san::expect_writes_exactly_once(v.pbest_err);
    san::expect_writes_exactly_once(v.improved);
    return v;
  }
};

/// best_update/gather: flagged particles copy their position row into
/// pbest_pos.
struct PbestGatherKernel {
  template <template <typename> class P>
  struct Pack {
    P<const std::uint8_t> improved;
    P<const float> positions;
    P<float> pbest_pos;
    int d;
  };
  using Args = Pack<Raw>;
  template <typename A>
  static void element(const A& a, std::int64_t i) {
    if (a.improved[i]) {
      for (int j = 0; j < a.d; ++j) {
        a.pbest_pos[i * a.d + j] = a.positions[i * a.d + j];
      }
    }
  }
  static Pack<View> track(const Args& a, std::int64_t n) {
    const auto rows = static_cast<std::size_t>(n);
    const std::size_t elements = rows * static_cast<std::size_t>(a.d);
    return {san::track(a.improved, rows, "improved"),
            san::track(a.positions, elements, "positions"),
            san::track(a.pbest_pos, elements, "pbest_pos"), a.d};
  }
  static std::int64_t grain(const Args& a) { return vgpu::row_grain(a.d); }
};

/// best_update/gbest_copy: copies the winning pbest row into gbest_pos.
struct GbestCopyKernel {
  template <template <typename> class P>
  struct Pack {
    P<const float> src;
    P<float> dst;
  };
  using Args = Pack<Raw>;
  template <typename A>
  static void element(const A& a, std::int64_t j) {
    a.dst[j] = a.src[j];
  }
  static Pack<View> track(const Args& a, std::int64_t d) {
    const auto row = static_cast<std::size_t>(d);
    const Pack<View> v{san::track(a.src, row, "gbest_src_row"),
                       san::track(a.dst, row, "gbest_pos")};
    san::expect_writes_exactly_once(v.dst);
    return v;
  }
};

/// swarm_update/global: per-element update against the gbest attractor.
struct SwarmUpdateGlobalKernel {
  template <template <typename> class P>
  struct Pack {
    P<float> velocities;
    P<float> positions;
    P<const float> l;
    P<const float> g;
    P<const float> pbest_pos;
    P<const float> gbest_pos;
    int d;
    UpdateCoefficients coeff;
  };
  using Args = Pack<Raw>;
  template <typename A>
  static void element(const A& a, std::int64_t i) {
    const int col = static_cast<int>(i % a.d);
    update_element(a.velocities[i], a.positions[i], a.l[i], a.g[i],
                   a.pbest_pos[i], a.gbest_pos[col], a.coeff);
  }
  static Pack<View> track(const Args& a, std::int64_t elements) {
    const auto count = static_cast<std::size_t>(elements);
    const Pack<View> v{
        san::track(a.velocities, count, "velocities"),
        san::track(a.positions, count, "positions"),
        san::track(a.l, count, "l_mat"),
        san::track(a.g, count, "g_mat"),
        san::track(a.pbest_pos, count, "pbest_pos"),
        san::track(a.gbest_pos, static_cast<std::size_t>(a.d), "gbest_pos"),
        a.d,
        a.coeff};
    san::expect_writes_exactly_once(v.velocities);
    san::expect_writes_exactly_once(v.positions);
    return v;
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
  template <template <typename> class P>
  struct Pack {
    P<float> velocities;
    P<float> positions;
    P<const float> l;
    P<const float> g;
    P<const float> pbest_pos;
    P<const std::int32_t> nbest_idx;
    int d;
    UpdateCoefficients coeff;
  };
  using Args = Pack<Raw>;
  template <typename A>
  static void element(const A& a, std::int64_t i) {
    const std::int64_t row = i / a.d;
    const int col = static_cast<int>(i % a.d);
    const float attractor =
        a.pbest_pos[static_cast<std::int64_t>(a.nbest_idx[row]) * a.d + col];
    update_element(a.velocities[i], a.positions[i], a.l[i], a.g[i],
                   a.pbest_pos[i], attractor, a.coeff);
  }
  static Pack<View> track(const Args& a, std::int64_t elements) {
    const auto count = static_cast<std::size_t>(elements);
    const Pack<View> v{
        san::track(a.velocities, count, "velocities"),
        san::track(a.positions, count, "positions"),
        san::track(a.l, count, "l_mat"),
        san::track(a.g, count, "g_mat"),
        san::track(a.pbest_pos, count, "pbest_pos"),
        san::track(a.nbest_idx, count / static_cast<std::size_t>(a.d),
                   "nbest_idx"),
        a.d,
        a.coeff};
    san::expect_writes_exactly_once(v.velocities);
    san::expect_writes_exactly_once(v.positions);
    return v;
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
