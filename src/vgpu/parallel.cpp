#include "vgpu/parallel.h"

#include <omp.h>

#include <algorithm>
#include <cstddef>
#include <exception>
#include <vector>

namespace fastpso::vgpu {

void parallel_for(std::int64_t n, std::int64_t grain, RangeFn fn,
                  const void* ctx) {
  if (n <= 0) {
    return;
  }
  grain = std::max<std::int64_t>(grain, 1);
  // n / 2 < grain is n < 2 * grain without the overflow.
  const std::int64_t parts =
      n / 2 < grain || omp_in_parallel() != 0
          ? 1
          : std::min<std::int64_t>(omp_get_max_threads(), n / grain);
  if (parts <= 1) {
    fn(ctx, 0, n);
    return;
  }
  // Range p gets n / parts indices, and the first n % parts ranges one more.
  const std::int64_t base = n / parts;
  const std::int64_t extra = n % parts;
  // An exception must not leave the parallel region (that calls
  // std::terminate): each range parks its own and the caller rethrows.
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(parts));
#pragma omp parallel for schedule(static) num_threads(static_cast<int>(parts))
  for (std::int64_t p = 0; p < parts; ++p) {
    const std::int64_t begin = p * base + std::min(p, extra);
    const std::int64_t end = begin + base + (p < extra ? 1 : 0);
    try {
      fn(ctx, begin, end);
    } catch (...) {
      errors[static_cast<std::size_t>(p)] = std::current_exception();
    }
  }
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
}

}  // namespace fastpso::vgpu
