// Hot-path hooks connecting the virtual GPU to the profiler
// (vgpu/prof/prof.h). Mirrors vgpu/san/hooks.h: this header is included by
// vgpu/device.h and must stay dependency-light — the device's launch /
// memcpy / alloc paths test prof::active() (a single branch on a process
// global) and only call into the out-of-line recording code when profiling
// has been switched on via FASTPSO_PROF=1 or prof::set_enabled(true).
#pragma once

namespace fastpso::vgpu::prof {

namespace detail {

/// Process-wide profiling toggle (the vgpu is single-threaded by contract).
/// Initialized from FASTPSO_PROF=1; flipped by set_enabled().
extern bool g_enabled;

// Kernel-label stack shared by san::KernelScope and prof::KernelLabel.
// Out-of-line (prof.cpp); only reached while profiling is enabled.
void push_label(const char* name);
void pop_label();
/// Innermost label, or nullptr when the stack is empty.
const char* current_label();

}  // namespace detail

/// True while the profiler is collecting. The one branch every hot-path
/// hook pays when profiling is off.
[[nodiscard]] inline bool active() { return detail::g_enabled; }

/// Turns collection on/off for subsequently issued device operations.
void set_enabled(bool enabled);

/// Event taxonomy: what a profile record describes. kKernel covers every
/// Device::launch / launch_kernel / launch_blocks / account_launch;
/// kHost covers modeled host seconds folded into the device timeline;
/// kComm covers one device's share of a modeled collective
/// (Device::account_comm, issued by comm::Communicator).
enum class EventKind {
  kKernel,
  kMemcpyH2D,
  kMemcpyD2H,
  kMemcpyD2D,
  kAlloc,
  kFree,
  kHost,
  kComm,
};

/// Which roofline term bounded a kernel's modeled time.
enum class Limiter {
  kNone,     ///< not a kernel event
  kCompute,  ///< t_compute >= t_memory
  kMemory,   ///< t_memory > t_compute
};

}  // namespace fastpso::vgpu::prof
