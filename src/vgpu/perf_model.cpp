#include "vgpu/perf_model.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/check.h"

namespace fastpso::vgpu {

double stride_amplification(std::size_t stride_elems, std::size_t elem_bytes) {
  FASTPSO_CHECK(stride_elems >= 1);
  FASTPSO_CHECK(elem_bytes >= 1);
  const double span =
      static_cast<double>(stride_elems) * static_cast<double>(elem_bytes);
  const double cap = kSectorBytes / static_cast<double>(elem_bytes);
  // Consecutive threads touch addresses `span` bytes apart. Once the span
  // exceeds a sector, each access drags in a full sector for elem_bytes of
  // useful data.
  if (span <= static_cast<double>(elem_bytes)) {
    return 1.0;
  }
  return std::min(cap, span / static_cast<double>(elem_bytes));
}

GpuPerfModel::GpuPerfModel(GpuSpec spec) : spec_(std::move(spec)) {
  // Compute saturates once every lane has a couple of warps to interleave.
  compute_saturation_ = spec_.lanes() * 2.0;
  compute_floor_ = 1.0 / compute_saturation_;
  eff_flops_plain_ = spec_.peak_flops() * spec_.alu_efficiency;
  eff_flops_tensor_ = spec_.tensor_tflops * 1e12;
  bw_base_ = spec_.eff_dram_bw_gbps * 1e9;
  launch_overhead_s_ = spec_.launch_overhead_us * 1e-6;
}

double GpuPerfModel::compute_occupancy(double threads) const {
  return std::clamp(threads / compute_saturation_, compute_floor_, 1.0);
}

double GpuPerfModel::memory_occupancy(double threads) const {
  const double ratio =
      std::clamp(threads / spec_.bw_saturation_threads, 1e-6, 1.0);
  // Saturated launches are the common case; IEEE pow(1.0, y) == 1.0 exactly.
  if (ratio == 1.0) {
    return 1.0;
  }
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(ratio);
  const std::size_t slot = static_cast<std::size_t>(
      (bits * 0x9E3779B97F4A7C15ull) >> 32) % kOccCacheSize;
  OccEntry& entry = occ_cache_[slot];
  if (entry.ratio != ratio) {
    entry.ratio = ratio;
    entry.occ = std::pow(ratio, spec_.bw_occupancy_exponent);
  }
  return entry.occ;
}

double GpuPerfModel::kernel_seconds(double threads,
                                    const KernelCostSpec& cost) const {
  FASTPSO_CHECK(threads >= 1.0);

  const double eff_flops =
      cost.uses_tensor_cores ? eff_flops_tensor_ : eff_flops_plain_;
  const double flop_work =
      cost.flops + cost.transcendentals * spec_.sfu_cost_flops;
  const double t_compute =
      flop_work / (eff_flops * compute_occupancy(threads));

  const double bw = bw_base_ * memory_occupancy(threads);
  const double t_memory = cost.fetched_bytes() / bw;

  return std::max(t_compute, t_memory) + launch_overhead_s_ +
         cost.barriers * spec_.barrier_overhead_us * 1e-6;
}

ResolvedLaunchShape GpuPerfModel::resolve_shape(double threads) const {
  FASTPSO_CHECK(threads >= 1.0);
  ResolvedLaunchShape s;
  s.threads = threads;
  s.compute_occupancy = compute_occupancy(threads);
  s.memory_occupancy = memory_occupancy(threads);
  s.compute_denom_plain = eff_flops_plain_ * s.compute_occupancy;
  s.compute_denom_tensor = eff_flops_tensor_ * s.compute_occupancy;
  s.memory_bw = bw_base_ * s.memory_occupancy;
  return s;
}

double GpuPerfModel::kernel_seconds_resolved(const ResolvedLaunchShape& shape,
                                             const KernelCostSpec& cost,
                                             double* t_compute_out,
                                             double* t_memory_out) const {
  // Mirrors kernel_seconds term by term. The denominators were folded at
  // resolve_shape time with the same association (eff_flops * occ, bw * occ)
  // the per-call code uses, so every double here is bit-identical.
  const double compute_denom = cost.uses_tensor_cores
                                   ? shape.compute_denom_tensor
                                   : shape.compute_denom_plain;
  const double flop_work =
      cost.flops + cost.transcendentals * spec_.sfu_cost_flops;
  const double t_compute = flop_work / compute_denom;
  const double t_memory = cost.fetched_bytes() / shape.memory_bw;
  if (t_compute_out != nullptr) {
    *t_compute_out = t_compute;
  }
  if (t_memory_out != nullptr) {
    *t_memory_out = t_memory;
  }
  return std::max(t_compute, t_memory) + launch_overhead_s_ +
         cost.barriers * spec_.barrier_overhead_us * 1e-6;
}

KernelTimeDetail GpuPerfModel::kernel_detail(double threads,
                                             const KernelCostSpec& cost)
    const {
  FASTPSO_CHECK(threads >= 1.0);
  // Mirrors kernel_seconds term by term (same operands, same association)
  // rather than refactoring it — kernel_seconds is on every launch's
  // critical path and its result must stay bit-identical.
  KernelTimeDetail d;
  d.compute_occupancy = compute_occupancy(threads);
  d.memory_occupancy = memory_occupancy(threads);

  const double eff_flops =
      cost.uses_tensor_cores ? eff_flops_tensor_ : eff_flops_plain_;
  const double flop_work =
      cost.flops + cost.transcendentals * spec_.sfu_cost_flops;
  d.compute_seconds = flop_work / (eff_flops * d.compute_occupancy);

  const double bw = bw_base_ * d.memory_occupancy;
  d.memory_seconds = cost.fetched_bytes() / bw;

  d.overhead_seconds = launch_overhead_s_;
  d.barrier_seconds = cost.barriers * spec_.barrier_overhead_us * 1e-6;
  return d;
}

double GpuPerfModel::transfer_seconds(double bytes) const {
  // Fixed latency per transfer plus bandwidth term.
  constexpr double kTransferLatencyUs = 8.0;
  return kTransferLatencyUs * 1e-6 + bytes / (spec_.pcie_bw_gbps * 1e9);
}

double GpuPerfModel::alloc_seconds() const {
  return spec_.alloc_overhead_us * 1e-6;
}

double GpuPerfModel::free_seconds() const {
  return spec_.free_overhead_us * 1e-6;
}

double CpuPerfModel::region_seconds(int threads, double flops,
                                    double transcendentals,
                                    double bytes) const {
  FASTPSO_CHECK(threads >= 1);
  const int cores = std::min(threads, spec_.cores);
  const double eff =
      cores == 1 ? 1.0 : spec_.omp_efficiency;  // fork/join + imbalance
  // Each CPU transcendental (scalar libm) is charged 12 FLOP-equivalents.
  // The value is assumed, not yet checked against a measured run; the CPU
  // cost-model item in ROADMAP.md is to measure it.
  constexpr double kCpuSfuCost = 12.0;
  const double flop_work = flops + transcendentals * kCpuSfuCost;
  const double t_compute =
      flop_work / (spec_.eff_flops_per_core * cores * eff);
  const double bw_gbps =
      cores == 1 ? spec_.single_core_bw_gbps : spec_.multi_core_bw_gbps;
  const double t_memory = bytes / (bw_gbps * 1e9);
  return std::max(t_compute, t_memory) + region_overhead_seconds(cores);
}

double CpuPerfModel::region_overhead_seconds(int threads) const {
  return threads > 1 ? spec_.omp_barrier_us * 1e-6 : 0.0;
}

}  // namespace fastpso::vgpu
