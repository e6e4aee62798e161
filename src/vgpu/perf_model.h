// Roofline-with-occupancy performance model for the virtual GPU.
//
// Every kernel launched through vgpu::Device declares a KernelCostSpec —
// its floating-point work, its useful DRAM traffic and the *access pattern*
// (coalesced vs strided) of that traffic. The model converts the spec plus
// the launch shape into modeled seconds:
//
//   t = max(t_compute, t_memory) + launch_overhead + barriers * sync_cost
//
//   t_compute = (flops + sfu_cost * transcendentals)
//               / (peak_flops * alu_eff * occ_c)
//   t_memory  = fetched_bytes / (eff_bw * occ_m)
//
// where occ_c and occ_m grow with the number of resident threads: a launch
// with few threads cannot hide memory latency or fill all SMs, which is
// precisely the mechanism the paper exploits (element-wise parallelism
// creates n*d threads and saturates the device; particle-wise parallelism
// creates only n threads and leaves it idle — Section 1 and 3.4).
//
// `fetched_bytes` is useful bytes multiplied by an amplification factor
// computed from the declared stride: a stride-d access pattern touches one
// element per cache sector, so the hardware fetches sector_bytes/elem_bytes
// times more than it uses. This is how the gpu-pso baseline's layout cost
// emerges from first principles rather than a fudge factor.
#pragma once

#include <array>
#include <cstddef>

#include "vgpu/device_spec.h"

namespace fastpso::vgpu {

/// DRAM transaction sector size used for coalescing analysis (bytes).
inline constexpr double kSectorBytes = 32.0;

/// Amplification factor for an access pattern with `stride_elems` elements
/// between consecutive threads' accesses of `elem_bytes` each.
/// stride 1 => coalesced => 1.0; large strides cap at sector/elem.
double stride_amplification(std::size_t stride_elems, std::size_t elem_bytes);

/// Work/traffic declaration for one kernel launch.
struct KernelCostSpec {
  double flops = 0;             ///< ordinary FP ops (FMA counts as 1)
  double transcendentals = 0;   ///< sin/cos/exp/log/pow evaluations
  double dram_read_bytes = 0;   ///< useful bytes read
  double dram_write_bytes = 0;  ///< useful bytes written
  double read_amplification = 1.0;
  double write_amplification = 1.0;
  int barriers = 0;             ///< __syncthreads phases
  bool uses_tensor_cores = false;

  /// Bytes the memory system actually moves.
  [[nodiscard]] double fetched_read_bytes() const {
    return dram_read_bytes * read_amplification;
  }
  [[nodiscard]] double fetched_write_bytes() const {
    return dram_write_bytes * write_amplification;
  }
  [[nodiscard]] double fetched_bytes() const {
    return fetched_read_bytes() + fetched_write_bytes();
  }
};

/// Term-by-term decomposition of kernel_seconds, for profiler attribution
/// (vgpu::prof): which roofline term bounded the launch and at what
/// occupancy. total() reproduces kernel_seconds bit-for-bit.
struct KernelTimeDetail {
  double compute_seconds = 0;   ///< flop work / effective compute rate
  double memory_seconds = 0;    ///< fetched bytes / effective bandwidth
  double overhead_seconds = 0;  ///< fixed launch overhead
  double barrier_seconds = 0;   ///< barriers * per-barrier sync cost
  double compute_occupancy = 0;
  double memory_occupancy = 0;

  [[nodiscard]] bool memory_bound() const {
    return memory_seconds > compute_seconds;
  }
  [[nodiscard]] double total() const {
    return (compute_seconds > memory_seconds ? compute_seconds
                                             : memory_seconds) +
           overhead_seconds + barrier_seconds;
  }
};

/// Launch-shape-dependent constants of kernel_seconds, resolved once for a
/// fixed thread count (vgpu::graph pre-resolves one per captured node). Each
/// field is the *same expression* (same operands, same association) the
/// per-call code evaluates, so kernel_seconds_resolved() reproduces
/// kernel_seconds() bit-for-bit for any cost spec.
struct ResolvedLaunchShape {
  double threads = 0;
  double compute_occupancy = 0;     ///< compute_occupancy(threads)
  double memory_occupancy = 0;      ///< memory_occupancy(threads)
  double compute_denom_plain = 0;   ///< eff_flops_plain * compute_occupancy
  double compute_denom_tensor = 0;  ///< eff_flops_tensor * compute_occupancy
  double memory_bw = 0;             ///< bw_base * memory_occupancy
};

/// Converts launch shape + cost spec into modeled seconds on a GpuSpec.
class GpuPerfModel {
 public:
  explicit GpuPerfModel(GpuSpec spec);

  [[nodiscard]] const GpuSpec& spec() const { return spec_; }

  /// Modeled execution time of one kernel launch with `threads` resident
  /// threads performing `cost` worth of work.
  [[nodiscard]] double kernel_seconds(double threads,
                                      const KernelCostSpec& cost) const;

  /// Pre-resolves the shape-dependent factors of kernel_seconds for a fixed
  /// thread count.
  [[nodiscard]] ResolvedLaunchShape resolve_shape(double threads) const;

  /// kernel_seconds over a pre-resolved shape: bit-identical to
  /// kernel_seconds(shape.threads, cost) with none of the per-call occupancy
  /// work. When `t_compute_out`/`t_memory_out` are given they receive the two
  /// roofline terms (for limiter attribution) — the same doubles
  /// kernel_detail computes.
  [[nodiscard]] double kernel_seconds_resolved(
      const ResolvedLaunchShape& shape, const KernelCostSpec& cost,
      double* t_compute_out = nullptr, double* t_memory_out = nullptr) const;

  /// kernel_seconds broken into its roofline terms. Evaluates the same
  /// expressions over the same operands, so detail.total() is bit-identical
  /// to kernel_seconds(threads, cost).
  [[nodiscard]] KernelTimeDetail kernel_detail(double threads,
                                               const KernelCostSpec& cost)
      const;

  /// Occupancy factor for compute throughput in (0, 1].
  [[nodiscard]] double compute_occupancy(double threads) const;

  /// Occupancy factor for memory bandwidth in (0, 1].
  [[nodiscard]] double memory_occupancy(double threads) const;

  /// Modeled PCIe transfer time for `bytes` (one direction).
  [[nodiscard]] double transfer_seconds(double bytes) const;

  /// Modeled cudaMalloc / cudaFree cost.
  [[nodiscard]] double alloc_seconds() const;
  [[nodiscard]] double free_seconds() const;

 private:
  GpuSpec spec_;
  // Spec-derived constants of kernel_seconds, hoisted to construction. Each
  // is the *same expression* (same operands, same association) the per-call
  // code used to evaluate, so modeled seconds are bit-identical; the model is
  // on every launch's critical path and these re-derivations dominated it.
  double eff_flops_plain_ = 0;     ///< peak_flops() * alu_efficiency
  double eff_flops_tensor_ = 0;    ///< tensor_tflops * 1e12
  double compute_saturation_ = 0;  ///< lanes() * 2.0
  double compute_floor_ = 0;       ///< 1.0 / compute_saturation_
  double bw_base_ = 0;             ///< eff_dram_bw_gbps * 1e9
  double launch_overhead_s_ = 0;   ///< launch_overhead_us * 1e-6

  // Direct-mapped memo for memory_occupancy's std::pow, keyed on the clamped
  // occupancy ratio. Launch shapes repeat heavily (same kernels every
  // iteration), and pow for the same ratio bits is deterministic, so caching
  // cannot change any returned value. Mutable: the memo is invisible state.
  struct OccEntry {
    double ratio = -1.0;  ///< impossible ratio => never matches
    double occ = 0.0;
  };
  static constexpr std::size_t kOccCacheSize = 16;  // power of two
  mutable std::array<OccEntry, kOccCacheSize> occ_cache_{};
};

/// Analytic cost model for the CPU implementations (fastpso-seq/-omp).
/// Same roofline idea with CPU constants; `threads` chooses between the
/// single-core and all-core operating points.
class CpuPerfModel {
 public:
  explicit CpuPerfModel(CpuSpec spec) : spec_(std::move(spec)) {}

  [[nodiscard]] const CpuSpec& spec() const { return spec_; }

  /// Modeled seconds for a loop nest doing `flops` FP ops (+transcendentals)
  /// over `bytes` of streaming traffic on `threads` cores.
  [[nodiscard]] double region_seconds(int threads, double flops,
                                      double transcendentals,
                                      double bytes) const;

  /// Per-parallel-region overhead (fork/join); zero for threads == 1.
  [[nodiscard]] double region_overhead_seconds(int threads) const;

 private:
  CpuSpec spec_;
};

}  // namespace fastpso::vgpu
