// vgpu::prof — an nvprof-equivalent profiling layer for the virtual GPU.
//
// Every headline number in the paper is an nvprof measurement (per-kernel
// times, memory traffic, occupancy); this layer makes the same attribution a
// first-class output of the engine instead of bench-local bookkeeping. While
// profiling is enabled (FASTPSO_PROF=1 or prof::set_enabled(true)) every
// Device::launch / launch_kernel / launch_blocks / account_launch, every
// memcpy, every allocation and every modeled host region appends one Event
// to the owning Device's timeline:
//
//   kind, kernel label, phase, stream, launch shape, KernelCostSpec,
//   modeled start/duration, host wall seconds, occupancies, roofline limiter
//
// The modeled fields are the *same doubles* the PerfModel handed to the
// device counters, recorded in the same order — so in-order aggregation over
// a Profile reproduces DeviceCounters::kernel_seconds, modeled_seconds and
// the per-phase TimeBreakdown bit-for-bit. That identity is the event-trace
// contract pinned by tests/test_prof.cpp and the golden Chrome trace in
// tests/golden/prof_trace_sphere.json: engine PRs cannot silently drop,
// double-count or relabel events without a test failing.
//
// Exports (DESIGN.md §7):
//   * Chrome-trace JSON (chrome://tracing / Perfetto), modeled timeline,
//     fully deterministic for a fixed seed — wall seconds are deliberately
//     excluded so traces are byte-identical across runs.
//   * CSV (one row per event, includes wall seconds; wall columns are
//     machine-dependent by nature).
//
// Zero overhead when off: the device hot paths pay one branch on
// prof::active() and nothing else (gated by micro_engine --prof-overhead).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/trace_export.h"
#include "vgpu/device.h"
#include "vgpu/prof/hooks.h"

namespace fastpso {
class CsvWriter;  // common/csv.h
}

namespace fastpso::vgpu::prof {

const char* to_string(EventKind kind);
const char* to_string(Limiter limiter);

/// One profiled device operation.
struct Event {
  EventKind kind = EventKind::kKernel;
  std::string label;  ///< kernel label (KernelScope/KernelLabel) or op name
  std::string phase;  ///< Device phase at emit time ("init"/"eval"/...)
  int stream = 0;
  std::int64_t grid = 0;   ///< kernels only
  int block = 0;           ///< kernels only
  KernelCostSpec cost;     ///< kernels only (declared cost)
  double bytes = 0;        ///< transfers/allocations: bytes moved/reserved
  double t_begin = 0;      ///< modeled stream-clock at op start (seconds)
  double modeled_seconds = 0;
  double wall_seconds = 0;  ///< host wall time of the body (kernels,
                            ///< transfers); non-deterministic, excluded
                            ///< from the Chrome trace
  double compute_occupancy = 0;  ///< kernels only
  double memory_occupancy = 0;   ///< kernels only
  Limiter limiter = Limiter::kNone;
};

/// Per-kernel-label aggregate, nvprof "GPU activities" style.
struct KernelRow {
  std::string label;
  std::uint64_t launches = 0;
  double modeled_seconds = 0;
  double wall_seconds = 0;
  double flops = 0;
  double fetched_read_bytes = 0;
  double fetched_write_bytes = 0;
};

/// A collected event timeline plus the aggregation API the benches consume.
/// Harvested from a Device with take_profile(); CPU baselines build one
/// directly via add_host().
struct Profile {
  std::vector<Event> events;

  [[nodiscard]] bool empty() const { return events.empty(); }
  void clear();

  /// Appends a modeled host region (CPU baselines, no Device involved);
  /// t_begin advances a private serial clock. `flops` lets heterogeneous
  /// baselines attribute host-side FP work (counted by flops()).
  void add_host(const char* label, const std::string& phase, double seconds,
                double flops = 0);

  // --- aggregation (all sums run in event order, so they reproduce the
  // --- device counters' accumulation bit-for-bit) ------------------------
  [[nodiscard]] std::uint64_t kernel_count() const;
  [[nodiscard]] std::uint64_t count(EventKind kind) const;
  /// Sum of kernel events' modeled seconds == DeviceCounters::kernel_seconds.
  [[nodiscard]] double kernel_seconds() const;
  /// Sum over all events == DeviceCounters::modeled_seconds (work seconds;
  /// stream overlap not deducted).
  [[nodiscard]] double modeled_seconds() const;
  /// Sum of kernel events' host wall seconds.
  [[nodiscard]] double kernel_wall_seconds() const;
  /// Kernel flops plus host-declared flops == DeviceCounters::flops (the
  /// heterogeneous baseline folds its CPU flops into the counters too).
  [[nodiscard]] double flops() const;
  /// Fetched DRAM reads/writes: kernel fetched bytes plus d2d copies ==
  /// DeviceCounters::dram_read_fetched / dram_write_fetched.
  [[nodiscard]] double dram_read_fetched() const;
  [[nodiscard]] double dram_write_fetched() const;
  /// Modeled seconds per Device phase tag == Device::modeled_breakdown().
  [[nodiscard]] std::map<std::string, double> seconds_by_phase() const;
  /// Per-label kernel totals in order of first appearance (deterministic).
  [[nodiscard]] std::vector<KernelRow> kernels_by_label() const;
  /// Top `n` labels by modeled seconds (ties broken by label).
  [[nodiscard]] std::vector<KernelRow> top_kernels(std::size_t n) const;
  /// Modeled-vs-wall ratio over kernels (how much faster the simulation
  /// host runs than the modeled device); 0 when no wall time was recorded.
  [[nodiscard]] double modeled_vs_wall() const;

  // --- exporters ---------------------------------------------------------
  /// The profile as Chrome-trace events (tid = stream) under an explicit
  /// process id. Multi-device runs concatenate trace_events(k) over the
  /// group's devices to render one merged timeline with a lane per device.
  [[nodiscard]] std::vector<TraceEvent> trace_events(int pid = 0) const;
  /// Deterministic chrome://tracing / Perfetto JSON (modeled timeline;
  /// tid = stream, pid = 0). Byte-identical for identical modeled runs.
  [[nodiscard]] std::string chrome_trace_json() const;
  bool write_chrome_trace(const std::string& path) const;
  /// One CSV row per event (includes wall seconds — machine-dependent).
  void to_csv(CsvWriter& csv) const;
  [[nodiscard]] static std::vector<std::string> csv_header();
  bool write_csv(const std::string& path) const;

 private:
  double host_clock_ = 0;  ///< serial modeled clock for add_host timelines
};

/// RAII phase annotation: sets the device phase for the scope's duration
/// and restores the previous phase on exit, so profiled/modeled time inside
/// is attributed to `phase` (the optimizer's per-step annotation).
class Scope {
 public:
  Scope(Device& device, PhaseId phase)
      : device_(device), previous_(device.phase_id()) {
    device_.set_phase(phase);
  }
  Scope(Device& device, const char* phase)
      : Scope(device, intern_phase(phase)) {}
  ~Scope() { device_.set_phase(previous_); }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Device& device_;
  PhaseId previous_;
};

/// RAII kernel label for profiler attribution only — unlike
/// san::KernelScope it never opts the launch into sanitizer cost audits and
/// never appears in sanitizer traces. Use where a san label would change
/// audited behavior (e.g. data-dependent kernels) but the profile should
/// still name the kernel. `name` must outlive the scope (string literal).
class KernelLabel {
 public:
  explicit KernelLabel(const char* name) {
    if (active()) {
      detail::push_label(name);
      pushed_ = true;
    }
  }
  ~KernelLabel() {
    if (pushed_) {
      detail::pop_label();
    }
  }

  KernelLabel(const KernelLabel&) = delete;
  KernelLabel& operator=(const KernelLabel&) = delete;

 private:
  bool pushed_ = false;
};

}  // namespace fastpso::vgpu::prof
