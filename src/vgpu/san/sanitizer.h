// vgpu::san — a validating execution layer for virtual-GPU kernels.
//
// Every numeric result in this repository flows through vgpu::Device::launch,
// and every launch hand-declares a KernelCostSpec that the roofline model
// turns into modeled time. Nothing in the base device cross-checks those
// declarations against what the kernel body actually does, and the serial
// execution order masks cross-thread races that would corrupt results on
// real hardware. This layer closes both gaps:
//
//   * Tracked<T> views (vgpu/san/tracked.h) record per-thread read/write
//     sets during a launch, bounds-checked on every access.
//   * A post-launch validator flags out-of-bounds accesses, cross-thread
//     races (two threads touching the same element, at least one writing,
//     with no barrier ordering them — the vgpu analogue of a CUDA data
//     race), and write-coverage gaps / double-updates against declared
//     expectations.
//   * A cost auditor compares counted traffic against the declared
//     KernelCostSpec and reports per-kernel drift. Counted DRAM bytes are
//     *unique* (buffer, element) touches per launch — the same perfect-cache
//     convention the hand-written specs use (e.g. the gbest row is declared
//     once, not once per particle). Flops are counted by explicit
//     count_flops() instrumentation at the site where an element is
//     processed, so coverage bugs show up as flop drift too.
//   * Every launch leaves a deterministic trace (kernel label, shape,
//     declared vs counted cost) serializable to JSON for golden-file
//     regression.
//
// Usage:
//
//   san::Session session;              // starts recording
//   ... run kernels (ported call sites create Tracked views) ...
//   const san::Report& report = session.finish();
//   ASSERT_TRUE(report.clean()) << report.summary();
//
// Kernels opt into auditing by wrapping their launch in a KernelScope
// (giving the launch a label); unlabeled launches are traced but their cost
// is not audited. See DESIGN.md §"The sanitizer layer".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "vgpu/device.h"
#include "vgpu/san/hooks.h"

namespace fastpso::vgpu::san {

/// How the auditor treats a buffer's traffic and conflicts.
enum class BufferClass {
  kGlobal,  ///< device DRAM: cost-audited, race-checked
  kShared,  ///< block shared memory: race-checked, excluded from DRAM audit
  kAtomic,  ///< accessed with atomic/serialized semantics: race checks are
            ///< suppressed (the launch declares the serialization a real
            ///< GPU would implement with atomics); still bounds-checked
};

/// How strictly a labeled launch is audited.
enum class AuditMode {
  kFull,       ///< cost drift beyond tolerance is a finding
  kTraceOnly,  ///< record declared vs counted, never flag drift (for
               ///< kernels whose traffic is inherently data-dependent)
};

/// One validated defect.
struct Finding {
  enum class Kind {
    kOutOfBounds,
    kWriteWriteRace,
    kReadWriteRace,
    kCoverageGap,
    kDoubleWrite,
    kCostDrift,
    kBarrierDrift,
  };
  Kind kind;
  std::string kernel;      ///< label of the launch (may be "<unnamed>")
  std::string buffer;      ///< buffer name ("" for launch-level findings)
  std::int64_t index = 0;  ///< element index (0 for launch-level findings)
  std::string detail;      ///< human-readable description
};

const char* to_string(Finding::Kind kind);

/// Traffic actually observed during one launch.
struct CountedCost {
  double flops = 0;
  double transcendentals = 0;
  double read_bytes = 0;   ///< unique (buffer, element) reads
  double write_bytes = 0;  ///< unique (buffer, element) writes
  int barriers = 0;        ///< max sync() count over the launch's blocks
};

/// Deterministic per-launch trace entry.
struct LaunchTrace {
  std::string kernel;  ///< KernelScope label, or "<unnamed>"
  std::int64_t grid = 0;
  int block = 0;
  KernelCostSpec declared;
  CountedCost counted;
  bool audited = false;  ///< label present and audit mode kFull
  int findings = 0;      ///< findings attributed to this launch

  /// Relative drift between declared and counted, with a both-zero guard.
  [[nodiscard]] static double drift(double declared_v, double counted_v);
  [[nodiscard]] double read_drift() const {
    return drift(declared.dram_read_bytes, counted.read_bytes);
  }
  [[nodiscard]] double write_drift() const {
    return drift(declared.dram_write_bytes, counted.write_bytes);
  }
  [[nodiscard]] double flop_drift() const {
    return drift(declared.flops, counted.flops);
  }
  /// Worst of the three cost-class drifts.
  [[nodiscard]] double max_drift() const;
};

/// Everything a Session observed, produced by Session::finish().
struct Report {
  std::vector<LaunchTrace> launches;
  std::vector<Finding> findings;

  [[nodiscard]] bool clean() const { return findings.empty(); }
  [[nodiscard]] int count(Finding::Kind kind) const;
  /// Worst declared-vs-counted drift over audited launches (0 when none).
  [[nodiscard]] double max_cost_drift() const;
  /// One line per finding, for test failure messages.
  [[nodiscard]] std::string summary() const;
  /// Deterministic JSON rendering (stable key order, integral numbers
  /// printed as integers) — the golden-file regression format.
  [[nodiscard]] std::string to_json() const;
};

struct SessionOptions {
  /// Allowed relative drift between declared and counted cost per class.
  double cost_tolerance = 0.02;
  /// Generate kCostDrift/kBarrierDrift findings for audited launches.
  bool audit_costs = true;
  /// Generate race findings.
  bool check_races = true;
};

/// A recording session. Constructing one activates the hooks; finish() (or
/// destruction) deactivates them and finalizes the report. Only one Session
/// may record at a time.
class Session {
 public:
  explicit Session(SessionOptions options = {});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Stops recording, runs end-of-session validation and returns the
  /// report. Idempotent; also called by the destructor.
  const Report& finish();

  [[nodiscard]] const SessionOptions& options() const { return options_; }

  /// The currently recording session, or nullptr.
  static Session* current() { return detail::g_session; }

  // ---- recording interface (used by hooks, Tracked, KernelScope) -------
  struct Impl;
  Impl& impl() { return *impl_; }

 private:
  SessionOptions options_;
  Impl* impl_;  // owned; raw to keep the header light
  Report report_;
  bool finished_ = false;
};

/// Labels every launch issued while in scope, opting them into cost
/// auditing. Scopes nest; the innermost label wins.
class KernelScope {
 public:
  explicit KernelScope(const char* name, AuditMode mode = AuditMode::kFull);
  ~KernelScope();

  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;

 private:
  bool pushed_ = false;
  bool prof_pushed_ = false;  ///< also on the profiler's label stack
};

namespace detail {
// Out-of-line slow paths (sanitizer.cpp); only reached while recording.
void count_flops_slow(double n);
void count_transcendentals_slow(double n);
}  // namespace detail

/// Adds `n` floating-point operations to the current launch's counted cost.
/// No-op outside a recording session — and inline, so the hot per-element
/// call sites in kernels pay one predictable branch, not a function call.
/// Ported kernels call this with the kernel's nominal per-element cost at
/// the site where the element is processed.
inline void count_flops(double n) {
  if (active()) [[unlikely]] {
    detail::count_flops_slow(n);
  }
}
/// As count_flops, for transcendental (sin/cos/exp/pow) evaluations.
inline void count_transcendentals(double n) {
  if (active()) [[unlikely]] {
    detail::count_transcendentals_slow(n);
  }
}

// ---- internal API between Tracked<T> and the session -------------------
namespace detail {

enum class AccessKind : std::uint8_t { kRead, kWrite };

/// Registers (or re-finds) a buffer with the active session. Returns an id
/// valid for this session, or -1 when no session is recording.
int register_buffer(const void* data, std::size_t count,
                    std::size_t elem_bytes, const char* name,
                    BufferClass cls);

/// Records one element access on a registered buffer. Only records while a
/// launch is in flight (host-side bookkeeping between launches is ignored).
void record_access(int buffer_id, std::int64_t index, AccessKind kind);

/// Reports an out-of-bounds access and returns true if a session consumed
/// it (caller then redirects the access to a sink); false means no session
/// is active and the caller must fail hard.
bool report_oob(const char* name, std::int64_t index, std::size_t count,
                AccessKind kind);

/// Declares that the next launch must write every element of `buffer_id`
/// exactly once (grid-stride coverage check).
void expect_writes_exactly_once(int buffer_id);

}  // namespace detail

}  // namespace fastpso::vgpu::san
