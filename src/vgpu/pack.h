// Deferred-execution hooks for cross-job batch packing (serve layer).
//
// The serving scheduler multiplexes many tiny same-shape jobs onto one
// device; PR 6's Batcher priced what a packed launch *would* save, but every
// job still executed its own launches. These hooks are the execution half of
// making that real (DESIGN.md §10, the Warp-Level Parallelism scheme from
// PAPERS.md): while a PackSink is attached and a graph replay is open,
// Device::launch_kernel — the launch path of every element kernel,
// batched evaluation included — offers each *matched* launch's body to the
// sink as a range closure instead of running it inline. The sink (one lane
// per job) later executes a whole same-shape cohort's spans through one
// Device::packed_dispatch with grid = k x per-job blocks.
//
// Accounting is untouched by design: a deferred launch was already fully
// accounted through the per-job replay path (counters, modeled seconds,
// breakdown slot, prof event) before the offer — deferral moves only the
// body's *execution*, which is legal exactly because element-wise bodies
// are order-independent across elements and cohort jobs own disjoint
// buffers. That is what keeps packed serving bitwise-equal-to-solo.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>

#include "vgpu/perf_model.h"

namespace fastpso::vgpu {

/// A stored element-range closure: invoke(begin, end) runs the deferred
/// body for elements [begin, end). Inline fixed-capacity storage — packing
/// defers one span per launch on the serving hot path, so a std::function
/// heap allocation per launch would hand back much of the win. Closures
/// must be trivially copyable/destructible and fit the buffer
/// (admissible<F>); every deferrable launch in the repo captures a small
/// by-value argument struct, which qualifies. Non-admissible closures
/// simply are not offered (the launch runs inline, exactly as unpacked).
class PackSpan {
 public:
  static constexpr std::size_t kCapacity = 192;

  template <typename Fn>
  static constexpr bool admissible =
      sizeof(Fn) <= kCapacity && std::is_trivially_copyable_v<Fn> &&
      std::is_trivially_destructible_v<Fn>;

  PackSpan() = default;

  /// Binds a range closure `fn(begin, end)` that runs its own loop over
  /// the elements (launch_kernel's run_span<K>).
  template <typename Fn>
  void bind_range(const Fn& fn) {
    static_assert(admissible<Fn>, "range closure does not fit a PackSpan");
    ::new (static_cast<void*>(storage_)) Fn(fn);
    invoke_ = [](const void* storage, std::int64_t begin, std::int64_t end) {
      (*static_cast<const Fn*>(static_cast<const void*>(storage)))(begin,
                                                                   end);
    };
  }

  void operator()(std::int64_t begin, std::int64_t end) const {
    invoke_(storage_, begin, end);
  }

 private:
  alignas(std::max_align_t) std::byte storage_[kCapacity];
  void (*invoke_)(const void*, std::int64_t, std::int64_t) = nullptr;
};

/// Where Device hands off deferrable launches while packing is active. One
/// sink serves one cohort round; the serve layer's CohortQueue implements
/// it with one lane per job.
class PackSink {
 public:
  virtual ~PackSink() = default;

  /// Offers a matched element launch for deferral. `node_index` is the
  /// matched node in the replay exec's node list (the packing key:
  /// same-shape jobs match the same node positionally), `cost`/`seconds`
  /// are the launch's live-accounted values (packed-credit input), and
  /// `span` executes the body over an element range. Returns false to
  /// decline — the caller must then flush the lane and run inline.
  virtual bool offer(int node_index, std::int64_t n_elems,
                     const KernelCostSpec& cost, double seconds,
                     const PackSpan& span) = 0;

  /// Executes everything deferred on the *current* lane, in offer order.
  /// Device calls this before any non-deferrable work (plain launches,
  /// block kernels, memcpys, frees) so per-job data ordering is preserved
  /// no matter what a job does between element launches.
  virtual void flush_lane() = 0;
};

}  // namespace fastpso::vgpu
