// Host fan-out for large kernel launches (DESIGN.md §1, "Host fan-out").
//
// A virtual-GPU launch is accounted as one grid, but its body runs on host
// cores. Element-wise kernels own disjoint outputs per index and do the
// same arithmetic per index whatever sub-range they are handed, so a
// launch's domain can be cut into contiguous ranges that run on several
// host threads without changing a result bit. parallel_for is that cut;
// the launch paths that use it are listed in DESIGN.md §1.
#pragma once

#include <algorithm>
#include <cstdint>

namespace fastpso::vgpu {

/// Launch-domain elements per host worker below which a split does not pay
/// for its fork/join: a launch of fewer than 2 * kHostGrain elements runs
/// inline. Row-domain launches pass row_grain(d).
inline constexpr std::int64_t kHostGrain = std::int64_t{1} << 14;

/// The grain of a launch whose domain is rows of `d` elements each (batched
/// evaluation, the pbest reset and gather): kHostGrain elements' worth of
/// rows, at least one.
inline std::int64_t row_grain(int d) {
  return std::max<std::int64_t>(1, kHostGrain / d);
}

/// Range body of parallel_for: runs indices [begin, end) of the domain.
using RangeFn = void (*)(const void* ctx, std::int64_t begin,
                         std::int64_t end);

/// Runs fn(ctx, begin, end) over at most `workers` contiguous, disjoint,
/// static ranges that cover [0, n), each at least `grain` long. `workers`
/// is the number of CPUs the process may run on (the OpenMP runtime's
/// default team size, so OMP_NUM_THREADS=1 gives a one-worker run). Runs
/// fn(ctx, 0, n) inline on the calling thread when n < 2 * grain or when
/// already inside a parallel region. An exception thrown by a range is
/// rethrown on the calling thread once every range has finished (the
/// lowest range's when several throw). fn must be safe to run concurrently
/// on disjoint ranges.
void parallel_for(std::int64_t n, std::int64_t grain, RangeFn fn,
                  const void* ctx);

/// parallel_for over a callable `fn(begin, end)`.
template <typename Fn>
void parallel_for(std::int64_t n, std::int64_t grain, const Fn& fn) {
  parallel_for(
      n, grain,
      [](const void* ctx, std::int64_t begin, std::int64_t end) {
        (*static_cast<const Fn*>(ctx))(begin, end);
      },
      &fn);
}

}  // namespace fastpso::vgpu
