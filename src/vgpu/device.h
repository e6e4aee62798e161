// The virtual GPU device: memory management, kernel launch, counters and
// modeled time. See DESIGN.md §1 for why this exists (no physical GPU in the
// reproduction environment) and vgpu/perf_model.h for the timing model.
//
// Kernels are ordinary C++ callables written against a CUDA-shaped thread
// context, and they really execute — all numeric results in the repository
// come from genuine computation. Only *time* is modeled.
//
// Usage sketch (grid-stride element-wise kernel, the paper's Section 3.4):
//
//   vgpu::Device dev;
//   auto cfg = vgpu::LaunchConfig::for_elements(dev.spec(), n * d);
//   vgpu::KernelCostSpec cost;
//   cost.flops = 9.0 * n * d;
//   cost.dram_read_bytes = ...;
//   dev.launch(cfg, cost, [=](const vgpu::ThreadCtx& t) {
//     for (std::int64_t i = t.global_id(); i < n * d; i += t.grid_stride()) {
//       v[i] = omega * v[i] + ...;
//     }
//   });
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/stopwatch.h"
#include "vgpu/device_spec.h"
#include "vgpu/graph/graph.h"
#include "vgpu/pack.h"
#include "vgpu/parallel.h"
#include "vgpu/perf_model.h"
#include "vgpu/prof/hooks.h"
#include "vgpu/san/hooks.h"

namespace fastpso::vgpu {

namespace prof {
struct Profile;  // vgpu/prof/prof.h
}

/// Host-side fast-path toggle (default on). When enabled and no sanitizer
/// Session is recording, Device::launch_kernel runs its kernel's span over
/// the element range instead of materialising every virtual thread, and
/// launch_blocks reuses a per-device shared-memory arena. Accounting
/// (counters, cost specs, modeled seconds) is identical on both paths; only
/// host wall-clock changes. Tests flip this off to drive the faithful
/// per-thread engine.
[[nodiscard]] bool fast_path_enabled();
void set_fast_path_enabled(bool enabled);

/// True when the flat fast path may be taken right now: the toggle is on
/// and no sanitizer Session is recording (a Session always gets the
/// faithful per-thread execution so traces are unchanged).
[[nodiscard]] inline bool use_fast_path() {
  return fast_path_enabled() && !san::active();
}

/// CUDA-like launch configuration: `grid` blocks of `block` threads.
struct LaunchConfig {
  std::int64_t grid = 1;
  int block = 256;

  [[nodiscard]] std::int64_t total_threads() const {
    return grid * static_cast<std::int64_t>(block);
  }

  /// One thread per element, capped at `max_blocks` (grid-stride beyond).
  static LaunchConfig for_elements(const GpuSpec& spec, std::int64_t elements,
                                   int block = 256,
                                   std::int64_t max_blocks = 65535);
};

/// Per-thread view inside a kernel: CUDA's (blockIdx, threadIdx, blockDim,
/// gridDim) plus the usual helpers.
struct ThreadCtx {
  std::int64_t block_idx = 0;
  int thread_idx = 0;
  int block_dim = 1;
  std::int64_t grid_dim = 1;

  [[nodiscard]] std::int64_t global_id() const {
    return block_idx * block_dim + thread_idx;
  }
  [[nodiscard]] std::int64_t grid_stride() const {
    return grid_dim * block_dim;
  }
};

/// Aggregate activity counters. `useful` bytes are what the kernel needed;
/// `fetched` bytes include coalescing amplification — the distinction is
/// what lets Table 3's measured-throughput numbers be reproduced.
struct DeviceCounters {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t launches = 0;
  std::uint64_t transfers = 0;
  std::uint64_t barriers = 0;
  double flops = 0;
  double transcendentals = 0;
  double dram_read_useful = 0;
  double dram_write_useful = 0;
  double dram_read_fetched = 0;
  double dram_write_fetched = 0;
  double h2d_bytes = 0;
  double d2h_bytes = 0;
  /// Modeled collective participation (vgpu/comm): count of collectives
  /// this device took part in, the bytes its link carried and the modeled
  /// seconds its comm stream was busy. Separate from the DRAM/PCIe traffic
  /// above — collective payloads move over the inter-device link.
  std::uint64_t collectives = 0;
  double comm_bytes = 0;
  double comm_seconds = 0;
  double modeled_seconds = 0;
  /// Modeled seconds spent inside kernels only (excludes transfers and
  /// allocation overheads) — the denominator of nvprof-style throughput.
  double kernel_seconds = 0;
};

namespace detail {

template <typename K>
concept HasOwnSpan = requires(const void* p, std::int64_t i) {
  { K::span(p, i, i) };
};

/// K declares sanitizer views for its Args (core/kernels_registry.h).
template <typename K>
concept HasTrack = requires(const typename K::Args& a, std::int64_t n) {
  K::track(a, n);
};

/// K declares its own host-worker grain.
template <typename K>
concept HasGrain = requires(const typename K::Args& a) {
  { K::grain(a) } -> std::convertible_to<std::int64_t>;
};

}  // namespace detail

/// Runs registered kernel K (core/kernels_registry.h) over elements
/// [begin, end): K's own span when it defines one (a row-segment or
/// batched form that beats the per-element loop), else the per-element
/// loop over K::element. The fast-path body of Device::launch_kernel, and
/// of the packed spans it offers.
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

class MemoryPool;  // vgpu/memory_pool.h

/// A virtual GPU. Owns its "device memory" (host allocations bounded by the
/// spec's capacity), a caching MemoryPool, activity counters and the
/// performance model. Not thread-safe: one host thread drives a Device (one
/// Device per optimizer instance). Large fast-path launches split their
/// kernel body across host workers (vgpu/parallel.h), but a split body
/// never touches Device state — accounting, capture, pack offers and
/// profiler events all run on the driving thread, around the body.
class Device {
 public:
  explicit Device(GpuSpec spec = tesla_v100());
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const GpuSpec& spec() const { return spec_; }
  [[nodiscard]] const GpuPerfModel& perf() const { return perf_; }

  // --- memory -----------------------------------------------------------
  /// Models cudaMalloc: allocates `bytes` of device memory. Throws
  /// CheckError when the device capacity would be exceeded.
  void* raw_alloc(std::size_t bytes);
  /// Models cudaFree. `p` must come from raw_alloc and not be freed twice.
  void raw_free(void* p);

  [[nodiscard]] std::size_t bytes_in_use() const { return bytes_in_use_; }
  [[nodiscard]] std::size_t bytes_available() const {
    return spec_.global_mem_bytes - bytes_in_use_;
  }
  [[nodiscard]] std::size_t live_allocations() const {
    return allocations_.size();
  }

  /// The device's caching allocator (paper Section 4.4 / Table 4), or the
  /// installed override (set_pool_override) while one is active.
  [[nodiscard]] MemoryPool& pool() {
    return pool_override_ != nullptr ? *pool_override_ : *pool_;
  }

  /// Routes pool() to a caller-owned allocator (nullptr restores the
  /// device's own). Returns the previous override. The serve scheduler
  /// installs a private pool around each job's device work so one job's
  /// cache warm-up can never change another job's alloc accounting — pool
  /// cache hits skip raw_alloc, so a shared warm cache would make a
  /// scheduled job's counters diverge from its solo run.
  MemoryPool* set_pool_override(MemoryPool* pool) {
    MemoryPool* prev = pool_override_;
    pool_override_ = pool;
    return prev;
  }

  // --- transfers ---------------------------------------------------------
  void memcpy_h2d(void* dst, const void* src, std::size_t bytes);
  void memcpy_d2h(void* dst, const void* src, std::size_t bytes);
  /// Device-to-device copy: moves at DRAM bandwidth (read + write), not
  /// over PCIe. Device-synchronizing like the other copies.
  void memcpy_d2d(void* dst, const void* src, std::size_t bytes);

  // --- streams --------------------------------------------------------------
  // Concurrent execution timelines, CUDA-stream style. Each kernel launch
  // advances the clock of the *current* stream only; allocations,
  // transfers and host work are device-synchronizing (they align all
  // clocks, as cudaMalloc / default-stream transfers do). modeled_seconds()
  // reports the furthest stream clock, so kernels issued on different
  // streams overlap. With a single stream (the default) this reduces
  // exactly to serial accumulation.
  using StreamId = int;

  /// Creates an additional stream; stream 0 always exists.
  StreamId create_stream();
  /// Routes subsequent launches to `stream`.
  void set_stream(StreamId stream);
  [[nodiscard]] StreamId stream() const { return current_stream_; }
  [[nodiscard]] int stream_count() const {
    return static_cast<int>(stream_clock_.size());
  }
  /// Device-wide barrier: every stream clock jumps to the maximum.
  void sync_streams();
  /// Event-wait, cudaStreamWaitEvent style: raises `stream`'s clock to at
  /// least `seconds` (no-op when the stream is already past it). Pure
  /// dependency modeling — no cost is accounted. The collective layer uses
  /// this to start every participant's comm step at the group-wide ready
  /// time.
  void stream_wait(StreamId stream, double seconds);
  /// Current clock of one stream (modeled seconds). The serve scheduler
  /// reads per-stream finish times from this for job latency and lane
  /// traces; modeled_seconds() is the max over all streams.
  [[nodiscard]] double stream_clock(StreamId stream) const {
    FASTPSO_CHECK_MSG(stream >= 0 &&
                          stream < static_cast<StreamId>(stream_clock_.size()),
                      "unknown stream");
    return stream_clock_[static_cast<std::size_t>(stream)];
  }

  // --- phases / accounting ------------------------------------------------
  /// Tags subsequent modeled time with `phase` (e.g. PhaseId::kSwarm),
  /// feeding the Figure 5 breakdown. The string form interns the name
  /// (common/stopwatch.h), for cold call sites.
  void set_phase(PhaseId phase) { phase_ = phase; }
  void set_phase(std::string_view phase) { phase_ = intern_phase(phase); }
  [[nodiscard]] PhaseId phase_id() const { return phase_; }
  [[nodiscard]] const std::string& phase() const { return phase_name(phase_); }

  /// The counters accounting currently lands in: the device's own, or the
  /// bound ones (bind_accounting).
  [[nodiscard]] const DeviceCounters& counters() const { return *counters_; }
  /// Zeroes the current counters and breakdown and every stream clock.
  void reset_counters();

  /// Points the device's activity counters and per-phase breakdown at the
  /// caller's accumulators until unbind_accounting(); stream clocks stay
  /// shared. The serve scheduler binds a job's accumulators around every
  /// entry into its device work, so each job's accounting evolves through
  /// exactly the solo sequence of += operations from zero — bitwise-
  /// identical to a solo run, which an after-minus-before delta of doubles
  /// could never guarantee. Throws CheckError when already bound or while a
  /// capture or replay is open (a replay session holds breakdown slot
  /// pointers). The accumulators must outlive the binding.
  void bind_accounting(DeviceCounters& counters, TimeBreakdown& breakdown);
  /// Points accounting back at the device's own accumulators, which hold
  /// what they held at bind time. Same preconditions, except that it needs
  /// a binding.
  void unbind_accounting();

  /// Modeled elapsed device time: the furthest stream clock. Equals the
  /// per-phase breakdown total when a single stream is used; smaller when
  /// work overlapped across streams.
  [[nodiscard]] double modeled_seconds() const;
  /// Modeled seconds per phase tag (work-seconds; overlap not deducted).
  [[nodiscard]] const TimeBreakdown& modeled_breakdown() const {
    return *breakdown_;
  }

  /// Adds host-side modeled time (e.g. the CPU half of the heterogeneous
  /// baseline) into the current phase so totals stay comparable.
  void add_modeled_host_seconds(double seconds);

  /// Accounts this device's share of one modeled collective (vgpu/comm):
  /// advances the CURRENT stream by `seconds` (so comm on a dedicated
  /// stream overlaps compute on stream 0), bumps the comm counters and —
  /// under profiling — records a kComm event labeled `label`. Never
  /// captured into graphs: collectives are cross-device operations the
  /// per-device node list cannot represent, so the Communicator re-accounts
  /// them eagerly every iteration, replayed or not.
  void account_comm(const char* label, double bytes, double seconds);

  // --- profiling (vgpu/prof/prof.h) --------------------------------------
  /// Hands over the event timeline collected while prof::active() was true
  /// and starts a fresh one. Empty when profiling was never enabled.
  [[nodiscard]] prof::Profile take_profile();

  /// The live timeline, or nullptr when nothing has been recorded.
  [[nodiscard]] const prof::Profile* profile() const { return profile_.get(); }

  // --- execution graphs (vgpu/graph/graph.h) ------------------------------
  // Capture-once/replay-many of a launch sequence, CUDA-Graph style. While
  // capturing, every account_launch/memcpy is recorded into `g` in addition
  // to its normal eager accounting. While replaying, re-issued launches are
  // matched against the instantiated node list and accounted through its
  // precomputed records (byte-identical values, none of the per-launch
  // setup); unmatched launches fall through to eager accounting.
  void begin_capture(graph::Graph& g);
  void end_capture();
  void begin_replay(graph::GraphExec& exec);
  /// Session-carrying variant: replay state (cursor, stream retarget,
  /// breakdown-slot cache) lives on the caller's session, so several
  /// clients can interleave replays of ONE exec — the serve layer opens a
  /// per-job session for every member of a packed cohort.
  void begin_replay(graph::GraphExec& exec,
                    graph::GraphExec::ReplaySession& session);
  /// Returns whether the replay matched cleanly (no divergence).
  bool end_replay();
  /// Pauses/resumes a replay without closing the session: detach restores
  /// the device to kOff (so another job's replay can be attached), attach
  /// re-installs an OPEN session. The packed scheduler round-robins the
  /// cohort through these between substeps.
  void detach_replay();
  void attach_replay(graph::GraphExec& exec,
                     graph::GraphExec::ReplaySession& session);

  // --- cross-job batch packing (vgpu/pack.h, src/serve/packed.h) ----------
  /// Attaches/clears the deferred-execution sink. While attached and a
  /// replay is open, matched element launches on the fast path are offered
  /// to the sink instead of executing inline; everything else flushes the
  /// sink's current lane first so per-job ordering is preserved. Accounting
  /// is unaffected (see vgpu/pack.h). Returns the previous sink.
  PackSink* set_pack_sink(PackSink* sink) {
    PackSink* prev = pack_sink_;
    pack_sink_ = sink;
    return prev;
  }
  [[nodiscard]] PackSink* pack_sink() const { return pack_sink_; }

  /// Executes one packed cohort dispatch: `run` performs the deferred spans
  /// of `jobs` same-shape jobs as a single grid of `cfg` (the packing
  /// engine builds `run` from its job-index indirection table). Pure
  /// execution — every member launch was already accounted through its own
  /// job's replay, so no counters or clocks move here; under profiling one
  /// event labeled "pack[k=jobs]:<label>" records the cohort dispatch with
  /// the packed modeled pricing for trace inspection.
  template <typename Fn>
  void packed_dispatch(const char* label, const LaunchConfig& cfg, int jobs,
                       double modeled_seconds, Fn&& run) {
    if (prof::active()) [[unlikely]] {
      prof_record_packed(label, cfg, jobs, modeled_seconds);
    }
    run_timed(run);
  }

  // --- kernel launch ------------------------------------------------------
  /// Accounts one launch of `cfg`/`cost` and runs `run()` once, inline, in
  /// its place: the pack lane is flushed first (inline work never defers).
  /// The shared core of launch and launch_blocks, and the fast-path form of
  /// block kernels whose per-thread phases reduce to one flat loop
  /// (core::swarm_update's shared-memory tiles).
  template <typename Fn>
  void launch_inline(const LaunchConfig& cfg, const KernelCostSpec& cost,
                     Fn&& run) {
    pack_flush_lane();
    account_launch(cfg, cost);
    run_timed(run);
  }

  /// Launches `body` once per thread of `cfg`. The body receives a
  /// ThreadCtx and is expected to grid-stride over its work.
  template <typename Body>
  void launch(const LaunchConfig& cfg, const KernelCostSpec& cost,
              Body&& body) {
    launch_inline(cfg, cost, [&] {
      ThreadCtx ctx;
      ctx.block_dim = cfg.block;
      ctx.grid_dim = cfg.grid;
      if (san::active()) [[unlikely]] {
        san::hook_launch_begin(cfg, cost);
        for (std::int64_t b = 0; b < cfg.grid; ++b) {
          ctx.block_idx = b;
          san::hook_block_begin(b);
          for (int t = 0; t < cfg.block; ++t) {
            ctx.thread_idx = t;
            san::hook_thread_begin(b, t);
            body(static_cast<const ThreadCtx&>(ctx));
          }
        }
        san::hook_launch_end();
        return;
      }
      for (std::int64_t b = 0; b < cfg.grid; ++b) {
        ctx.block_idx = b;
        for (int t = 0; t < cfg.block; ++t) {
          ctx.thread_idx = t;
          body(static_cast<const ThreadCtx&>(ctx));
        }
      }
    });
  }

  /// Launches a registered kernel K over elements [0, n_elems): the one
  /// launch path for element-wise kernels on both engines. K follows the
  /// core/kernels_registry.h contract: a by-value `Args` pack, the
  /// reference `element(args, i)` and optionally `track(args, n)`,
  /// `span(args, begin, end)` and `grain(args)`. Both paths account (and,
  /// while capturing, record their node) through account_launch. On the
  /// fast path the body is run_span<K> — K's span when it defines one —
  /// offered as a range span to an attached pack sink for a
  /// replay-matched launch, or run inline, split across host workers
  /// (vgpu/parallel.h) in ranges of at least K::grain (default kHostGrain)
  /// once the domain reaches two of them; every registered span takes
  /// arbitrary sub-ranges, so the bits do not depend on the split. Off the
  /// fast path K::element runs through the faithful per-thread grid-stride
  /// engine, over the tracked views K::track registers when K declares
  /// them. K::element must be order-independent across elements: each
  /// index owns its own outputs.
  template <typename K>
  void launch_kernel(const LaunchConfig& cfg, const KernelCostSpec& cost,
                     std::int64_t n_elems, const typename K::Args& args) {
    if (!use_fast_path()) [[unlikely]] {
      const auto run_threads = [&](const auto& views) {
        launch(cfg, cost, [&](const ThreadCtx& t) {
          for (std::int64_t i = t.global_id(); i < n_elems;
               i += t.grid_stride()) {
            K::element(views, i);
          }
        });
      };
      if constexpr (detail::HasTrack<K>) {
        // Views are built before launch() opens the sanitizer's launch
        // record: coverage expectations bind to the next launch.
        run_threads(K::track(args, n_elems));
      } else {
        run_threads(args);
      }
      return;
    }
    account_launch(cfg, cost);
    if (pack_offer_range(n_elems, cost,
                         [args](std::int64_t b, std::int64_t e) {
                           run_span<K>(args, b, e);
                         })) {
      return;
    }
    std::int64_t grain = kHostGrain;
    if constexpr (detail::HasGrain<K>) {
      grain = K::grain(args);
    }
    run_timed([&] {
      parallel_for(n_elems, grain,
                   [&args](std::int64_t b, std::int64_t e) {
                     run_span<K>(args, b, e);
                   });
    });
  }

  /// Launches a cooperative block kernel: `body` is called once per block
  /// with a BlockCtx that provides shared memory and barrier phases.
  /// Declared here, defined in vgpu/block.h (needs BlockCtx).
  template <typename Body>
  void launch_blocks(const LaunchConfig& cfg, const KernelCostSpec& cost,
                     Body&& body);

  /// Accounting entry point shared by all launch styles (also used by
  /// tests to drive the model directly).
  void account_launch(const LaunchConfig& cfg, const KernelCostSpec& cost);

  /// Flushes the attached sink's current lane (no-op without a sink).
  /// Called by every non-deferrable execution style and by host-side
  /// readers of device data (reductions, host fold loops).
  void pack_flush_lane() {
    if (pack_sink_ != nullptr) [[unlikely]] {
      pack_sink_->flush_lane();
    }
  }

  // --- packed-timeline hooks (serve/packed.h) -----------------------------
  // A deferred launch's per-job accounting (counters, modeled_seconds,
  // breakdown) stays exactly solo, but its stream-clock advance is
  // retracted at offer time and re-added by whichever path executes the
  // span: the merged cohort dispatch (pack_commit_dispatch, at the packed
  // price) or an inline lane flush (pack_restore_stream_seconds, at the
  // original price). Only *where on the shared timeline* the work lands
  // moves — the scheduling freedom the serve contract grants.

  /// Advances the clocks of the dispatch's member streams together: all of
  /// them wait for the packed launch, which starts when the latest member
  /// is ready and costs `seconds` once.
  void pack_commit_dispatch(const StreamId* streams, int count,
                            double seconds) {
    double start = 0;
    for (int i = 0; i < count; ++i) {
      start = std::max(start,
                       stream_clock_[static_cast<std::size_t>(streams[i])]);
    }
    const double finish = start + seconds;
    for (int i = 0; i < count; ++i) {
      stream_clock_[static_cast<std::size_t>(streams[i])] = finish;
    }
  }

  /// Re-adds a retracted launch's time to `stream` (inline flush fallback:
  /// the span ran unpacked after all, at its original solo price).
  void pack_restore_stream_seconds(StreamId stream, double seconds) {
    stream_clock_[static_cast<std::size_t>(stream)] += seconds;
  }

  /// Reusable shared-memory scratch arena for BlockCtx. Grows on demand,
  /// never shrinks, and is NOT cleared between blocks — CUDA shared memory
  /// carries no cross-block guarantees either, and every kernel in the
  /// repo writes its shared arrays before reading them (the sanitizer's
  /// race checker enforces exactly this contract).
  [[nodiscard]] std::byte* shared_scratch(std::size_t bytes);

 private:
  friend class MemoryPool;

  GpuSpec spec_;
  GpuPerfModel perf_;
  std::map<void*, std::size_t> allocations_;
  std::size_t bytes_in_use_ = 0;
  DeviceCounters own_counters_;
  TimeBreakdown own_breakdown_;
  /// Where accounting lands: the own_* accumulators, or a binding's.
  DeviceCounters* counters_ = &own_counters_;
  TimeBreakdown* breakdown_ = &own_breakdown_;
  PhaseId phase_ = PhaseId::kDefault;
  std::unique_ptr<MemoryPool> pool_;
  MemoryPool* pool_override_ = nullptr;
  std::vector<double> stream_clock_ = {0.0};
  StreamId current_stream_ = 0;
  std::vector<std::byte> shared_scratch_;
  /// Event timeline, allocated lazily on the first profiled operation so an
  /// idle profiler costs nothing (vgpu/prof/prof.h).
  std::unique_ptr<prof::Profile> profile_;

  /// Graph capture/replay session state. kOff is the steady state; the
  /// account_launch hot path pays exactly one predicted-not-taken compare
  /// for it.
  enum class GraphMode : std::uint8_t { kOff, kCapturing, kReplaying };
  GraphMode graph_mode_ = GraphMode::kOff;
  graph::Graph* capture_graph_ = nullptr;
  graph::GraphExec* replay_exec_ = nullptr;
  /// Session the open replay accounts through (the exec's own session for
  /// the exec-level begin_replay, a caller-owned one for the packed path).
  graph::GraphExec::ReplaySession* replay_session_ = nullptr;

  /// Retracts the just-accounted launch's stream-clock advance after an
  /// accepted deferral (the account_launch replay path added exactly
  /// last_replay_seconds_ to the current stream, stream-locally, with no
  /// intervening clock operation). The sink owes this time back through
  /// pack_commit_dispatch / pack_restore_stream_seconds.
  void pack_defer_stream_time() {
    stream_clock_[static_cast<std::size_t>(current_stream_)] -=
        last_replay_seconds_;
  }

  /// Cross-job packing state (vgpu/pack.h). last_replay_node_ is the node
  /// index the most recent account_launch matched during replay (-1
  /// otherwise) — the deferral key pack_offer_range offers to the sink.
  PackSink* pack_sink_ = nullptr;
  int last_replay_node_ = -1;
  double last_replay_seconds_ = 0;

  /// Capture/replay half of account_launch (device.cpp). Returns true when
  /// a replay match consumed the launch (fast-path accounting done).
  bool graph_account(const LaunchConfig& cfg, const KernelCostSpec& cost);

  /// `device_wide` costs (allocs, transfers, host work) synchronize and
  /// advance every stream; kernel costs advance only the current stream.
  void add_modeled(double seconds, bool device_wide = true);

  /// Offers launch_kernel's range closure for the launch just accounted to
  /// the attached pack sink. Returns true when the sink took it (the launch
  /// then skips its inline run); otherwise flushes the sink's lane.
  template <typename Fn>
  bool pack_offer_range(std::int64_t n_elems, const KernelCostSpec& cost,
                        const Fn& fn) {
    if (pack_sink_ != nullptr) [[unlikely]] {
      if constexpr (PackSpan::admissible<Fn>) {
        if (last_replay_node_ >= 0) {
          PackSpan span;
          span.bind_range(fn);
          if (pack_sink_->offer(last_replay_node_, n_elems, cost,
                                last_replay_seconds_, span)) {
            pack_defer_stream_time();
            return true;
          }
        }
      }
      pack_sink_->flush_lane();
    }
    return false;
  }

  /// Runs a just-accounted launch's body; under profiling its host wall
  /// time lands on the launch's event.
  template <typename Fn>
  void run_timed(Fn&& run) {
    if (prof::active()) [[unlikely]] {
      Stopwatch wall;
      run();
      prof_note_wall(wall.elapsed_s());
      return;
    }
    run();
  }

  /// Adds host wall seconds of a just-executed kernel body to its event.
  void prof_note_wall(double seconds);

  // Out-of-line profiler slow paths (device.cpp); reached only while
  // prof::active(). Events are recorded *before* add_modeled so t_begin is
  // the pre-advance stream clock.
  void prof_record_kernel(const LaunchConfig& cfg, const KernelCostSpec& cost,
                          double seconds);
  /// Replay-path variant: occupancies and the limiter come pre-resolved
  /// from the matched graph node (prof_record_kernel resolves them through
  /// kernel_detail and delegates here); label, phase and stream are the
  /// live values, as in eager mode.
  void prof_record_kernel_replay(const LaunchConfig& cfg,
                                 const KernelCostSpec& cost, double seconds,
                                 double compute_occupancy,
                                 double memory_occupancy, bool memory_bound);
  void prof_record_op(prof::EventKind kind, double bytes, double seconds,
                      double wall_seconds);
  /// Packed cohort dispatch event ("pack[k=jobs]:<label>").
  void prof_record_packed(const char* label, const LaunchConfig& cfg,
                          int jobs, double modeled_seconds);
};

}  // namespace fastpso::vgpu
