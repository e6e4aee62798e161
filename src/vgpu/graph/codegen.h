// Compiled SoA loops for fused standalone replay (DESIGN.md §11).
//
// Motivation: the fusion pass (vgpu/graph/fusion.h) removes launch
// *bookkeeping*, but Device::replay_fused still executes every member body
// per element through a std::function — an indirect call the compiler can
// neither inline nor vectorize, so fused replay is no faster on the host
// than the eager loop it replaced. Real GPU PSO stacks get their throughput
// from hand-fused, tightly-compiled per-particle loops (cuPSO, PAPERS.md);
// this layer reproduces that on the host side.
//
// The mechanism is a static-kernel registry:
//
//   register    A known element kernel (init fill, swarm update, eval
//               dispatch, pbest compare/gather — src/core/kernels_registry.h)
//               attaches a StaticKernel to its captured node at launch time:
//               an interned code tag, a statically-bound span function
//               `void(const void* args, int64 begin, int64 end)`, and a
//               typed, by-value argument pack. Registration is cheap and
//               always on while capturing; it never changes execution.
//   resolve     GraphExec::apply_codegen (auto-run at the end of
//               apply_fusion when codegen is enabled) resolves each fused
//               group once: when every member carries a valid StaticKernel
//               *and* a captured body, the group stores the members' span
//               pointers and raw argument pointers — and, when the exact
//               member tag sequence was registered as a composition
//               (register_composed_sequence), a single fully-inlined
//               ComposedFn that runs all members chunk-wise in one pass
//               with no indirect calls at all.
//   execute     Device::replay_fused dispatches compiled groups through the
//               composed loop (best) or chunked member spans (good), and
//               falls back to the interpreted per-element path for any
//               group with an unregistered/opaque member — automatically,
//               with no caller involvement.
//
// Why numerics stay bitwise identical: the eager launch and the registered
// span both run run_span<K>, and a kernel's own span computes the same
// elements with the same arithmetic as its reference `element()` (the
// composed loops call element() directly); fusion legality already
// guarantees that all in-group same-storage dataflow is element-aligned
// (BufferUse::aligned_with) — so any member-order-preserving schedule
// (per-element, chunked, or composed) produces exactly the eager bits. No
// fast-math is enabled anywhere in the build, and FMA contraction is off
// (src/CMakeLists.txt).
//
// Default off; enable with FASTPSO_CODEGEN=1 or codegen::set_enabled(true).
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace fastpso::vgpu::graph::codegen {

/// Process-wide codegen toggle (default off; FASTPSO_CODEGEN=1 starts it
/// on). Gates only apply_codegen's resolution — registration during
/// capture is unconditional and free.
[[nodiscard]] bool enabled();
void set_enabled(bool enabled);

/// Statically-bound loop over elements [begin, end) of one kernel.
using SpanFn = void (*)(const void* args, std::int64_t begin,
                        std::int64_t end);

/// Fully-inlined loop over elements [begin, end) of a whole fused group;
/// args[m] is member m's argument pack, in capture order.
using ComposedFn = void (*)(const void* const* args, std::int64_t begin,
                            std::int64_t end);

/// Chunk length for the member-span tier: spans run in member order over
/// ~kChunk-element windows so intermediate values stay cache-hot between
/// members without changing any element's member-visit order.
inline constexpr std::int64_t kChunk = 1024;

/// Interns a kernel code tag ("init/fill_uniform", ...). Tags identify
/// CODE, never data — two launches of the same kernel over different
/// buffers share a tag and differ only in their argument packs. Returns a
/// stable nonzero id; repeated calls with the same name return the same id.
[[nodiscard]] std::uint32_t intern_tag(std::string_view name);
/// Name for an interned tag ("<invalid>" for 0 / unknown ids).
[[nodiscard]] std::string_view tag_name(std::uint32_t tag);

/// What a call site registers against its captured node: which code the
/// launch ran (tag + span) and the by-value arguments it ran over. The
/// shared_ptr keeps the pack alive as long as the graph; the raw pointers
/// *inside* the pack follow the same caller lifetime promise as captured
/// bodies (Device::set_capture_bodies).
struct StaticKernel {
  std::uint32_t tag = 0;
  SpanFn span = nullptr;
  std::shared_ptr<const void> args;

  [[nodiscard]] bool valid() const {
    return tag != 0 && span != nullptr && args != nullptr;
  }
};

/// Registers a composed loop for an exact member tag sequence. Later
/// registrations of the same sequence win (there is no semantic ambiguity:
/// any registrant for a sequence must compose exactly those members'
/// element functions in order).
void register_composed(std::vector<std::uint32_t> tags, ComposedFn fn);
/// Composed loop for an exact tag sequence, or nullptr.
[[nodiscard]] ComposedFn find_composed(const std::vector<std::uint32_t>& tags);

namespace detail {

template <typename K>
concept HasOwnSpan = requires(const void* p, std::int64_t i) {
  { K::span(p, i, i) };
};

}  // namespace detail

/// Runs kernel K over elements [begin, end), statically bound: K's own span
/// when it defines one (a row-segment or batched form that beats the
/// per-element loop), else the per-element loop over K::element. Every
/// execution of a registered kernel goes through this — the eager fast
/// path (Device::launch_kernel), packed dispatch and compiled replay.
template <typename K>
void run_span(const typename K::Args& args, std::int64_t begin,
              std::int64_t end) {
  if constexpr (detail::HasOwnSpan<K>) {
    K::span(&args, begin, end);
  } else {
    for (std::int64_t i = begin; i < end; ++i) {
      K::element(args, i);
    }
  }
}

namespace detail {

/// Type-erased run_span<K>: the SpanFn a StaticKernel stores.
template <typename K>
void span_thunk(const void* args, std::int64_t begin, std::int64_t end) {
  run_span<K>(*static_cast<const typename K::Args*>(args), begin, end);
}

/// One pass over a member sequence: chunk-wise member-major, everything
/// statically bound. Per ~kChunk window each member's element loop runs as
/// its own tight, trivially-vectorizable loop (an element-interleaved body
/// would serialize the FMA chains and defeat SIMD — measured 10x slower on
/// the micro_engine --codegen chain), while the window keeps intermediate
/// values cache-hot between members. The fold evaluates members left to
/// right (capture order == member order); element-visit order per member
/// is ascending, exactly as the chunked tier and the eager launches —
/// fusion legality makes all these schedules produce identical bits (see
/// the header comment).
template <typename... Ks>
void composed_thunk(const void* const* args, std::int64_t begin,
                    std::int64_t end) {
  for (std::int64_t c = begin; c < end; c += kChunk) {
    const std::int64_t stop = c + kChunk < end ? c + kChunk : end;
    std::size_t m = 0;
    (([&] {
       const auto& a = *static_cast<const typename Ks::Args*>(args[m]);
       ++m;
       for (std::int64_t i = c; i < stop; ++i) {
         Ks::element(a, i);
       }
     }()),
     ...);
  }
}

}  // namespace detail

/// Builds the StaticKernel for one launch of kernel struct K over `args`.
/// K's contract (src/core/kernels_registry.h): a POD-ish `Args` pack, a
/// `static std::uint32_t tag()`, and a
/// `static void element(const Args&, std::int64_t i)` — the reference code
/// for one element — plus optionally its own
/// `static void span(const void*, int64, int64)` when a batched form is
/// cheaper than the per-element loop.
template <typename K>
[[nodiscard]] StaticKernel make_static(typename K::Args args) {
  StaticKernel k;
  k.tag = K::tag();
  k.span = &detail::span_thunk<K>;
  k.args = std::make_shared<const typename K::Args>(std::move(args));
  return k;
}

/// Registers composed_thunk<Ks...> for the tag sequence {Ks::tag()...}.
template <typename... Ks>
void register_composed_sequence() {
  register_composed({Ks::tag()...}, &detail::composed_thunk<Ks...>);
}

/// Resolution bookkeeping, surfaced through core::Result for benches and
/// tests. Like GraphStats/FusionStats, reported only: compiled execution
/// changes host wall time, never counters, modeled seconds or traces.
struct CodegenStats {
  bool enabled = false;  ///< codegen mode was on for this exec
  bool applied = false;  ///< apply_codegen ran
  /// Fused groups whose members ALL carry a registered static kernel (the
  /// serve layer's paired replays reach this level: recognition without
  /// body execution).
  int registered_groups = 0;
  /// Registered groups whose exact tag sequence has a composed loop.
  int composed_groups = 0;
  /// Registered groups that are executable compiled (bodies captured) —
  /// Device::replay_fused runs these through spans / the composed loop.
  int compiled_groups = 0;
  /// Fused groups with at least one unregistered/opaque member: the
  /// interpreted per-element fallback.
  int interpreted_groups = 0;
  /// Unfused kernel nodes replayable through their registered span.
  int compiled_nodes = 0;
  /// Fused-group dispatches executed compiled (chunked or composed).
  std::uint64_t compiled_dispatches = 0;
  /// The subset of compiled_dispatches that ran the composed loop.
  std::uint64_t composed_dispatches = 0;
};

}  // namespace fastpso::vgpu::graph::codegen
