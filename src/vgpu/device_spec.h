// Machine descriptions for the performance models.
//
// The paper's testbed is a Tesla V100 (16 GB) in a dual Xeon E5-2640v4 host.
// This environment has neither, so timing is produced by an analytic model
// (see vgpu/perf_model.h) parameterized by these specs. All constants that
// were *calibrated* against the paper's measured numbers (rather than taken
// from vendor datasheets) are marked "calibrated" below and discussed in
// DESIGN.md §1 and §5.
#pragma once

#include <cstddef>
#include <string>

namespace fastpso::vgpu {

/// Static description of a (virtual) GPU.
struct GpuSpec {
  std::string name;

  // --- datasheet constants ---
  int sm_count = 80;               ///< streaming multiprocessors
  int cores_per_sm = 64;           ///< FP32 lanes per SM
  double clock_ghz = 1.38;         ///< boost clock
  std::size_t global_mem_bytes = 16ull << 30;  ///< device memory capacity
  std::size_t shared_mem_per_block = 48u << 10;
  int max_threads_per_block = 1024;
  int warp_size = 32;
  double pcie_bw_gbps = 12.0;      ///< effective H2D/D2H bandwidth (GB/s)
  double tensor_tflops = 112.0;    ///< FP16 tensor-core peak (TFLOP/s)

  // --- inter-device link (vgpu/comm, DESIGN.md §12) ---
  /// Effective per-direction device-to-device link bandwidth (GB/s). The
  /// paper machine carries exchanges over PCIe; an NVLink-generation part
  /// would raise this. Consumed by the modeled collectives' bandwidth term.
  double link_bw_gbps = 10.0;
  /// Per-hop link latency (microseconds): one ring step of a collective
  /// pays this once regardless of payload.
  double link_latency_us = 2.0;

  // --- calibrated effective-throughput constants ---
  /// Effective DRAM bandwidth (GB/s) achievable by streaming element-wise
  /// kernels at full occupancy. Calibrated so the modeled fastpso
  /// dram_read_throughput reproduces the paper's Table 3 (~107 GB/s read,
  /// i.e. ~160 GB/s total read+write for this kernel mix).
  double eff_dram_bw_gbps = 220.0;
  /// Threads needed to saturate DRAM bandwidth (latency hiding).
  double bw_saturation_threads = 70000.0;
  /// Exponent of the bandwidth-vs-occupancy curve; calibrated so a
  /// 5000-thread particle-per-thread kernel achieves ~38% of effective
  /// bandwidth, reproducing gpu-pso's measured 61.8 GB/s (Table 3).
  double bw_occupancy_exponent = 0.37;
  /// Fraction of FP32 peak achievable by non-tensor ALU work.
  double alu_efficiency = 0.55;
  /// Throughput cost of one transcendental (sin/cos/exp/log) relative to
  /// one FMA on the special-function units.
  double sfu_cost_flops = 8.0;

  // --- overheads ---
  double launch_overhead_us = 4.0;   ///< per kernel launch
  double barrier_overhead_us = 0.3;  ///< per __syncthreads phase per launch
  double alloc_overhead_us = 5.0;    ///< cudaMalloc-equivalent
  double free_overhead_us = 3.0;     ///< cudaFree-equivalent
  /// CUDA-Graph amortization constants (vgpu/graph): replaying an
  /// instantiated graph pays one cudaGraphLaunch-equivalent per replay plus
  /// a small residual gap per node, instead of launch_overhead_us per
  /// kernel. Used only for the *reported* graph-replay credit
  /// (serve::GraphCache) — device clocks and counters always accrue the
  /// eager overheads so every golden stays byte-identical.
  double graph_launch_overhead_us = 10.0;  ///< per graph replay
  double graph_node_overhead_us = 0.5;     ///< residual per node in a replay

  /// Total FP32 lanes (SMs x cores).
  [[nodiscard]] double lanes() const {
    return static_cast<double>(sm_count) * cores_per_sm;
  }
  /// Peak FP32 throughput in FLOP/s (2 flops per FMA lane-cycle).
  [[nodiscard]] double peak_flops() const {
    return lanes() * clock_ghz * 1e9 * 2.0;
  }
};

/// The paper's device: Tesla V100-PCIe 16 GB.
GpuSpec tesla_v100();

/// A smaller device for tests (few SMs, tiny shared memory) so resource
/// limits are exercised without big allocations.
GpuSpec test_gpu_small();

/// Static description of a (virtual) CPU used by the CPU cost models.
struct CpuSpec {
  std::string name;
  int cores = 20;             ///< physical cores (2 sockets x 10)
  double clock_ghz = 2.4;     ///< E5-2640v4 base clock

  // --- calibrated effective-throughput constants (DESIGN.md §1) ---
  /// Effective scalar+autovectorized FLOP rate of one core (FLOP/s).
  double eff_flops_per_core = 4.0e9;
  /// Effective streaming bandwidth of one core (GB/s).
  double single_core_bw_gbps = 7.0;
  /// Effective aggregate bandwidth with all cores (GB/s); memory-bound
  /// OpenMP code only gains bw_multi/bw_single, which is what limits the
  /// paper's fastpso-omp to ~1.3x over fastpso-seq.
  double multi_core_bw_gbps = 9.5;
  /// Parallel efficiency of the OpenMP compute phase.
  double omp_efficiency = 0.8;
  /// Per-iteration OpenMP fork/join + barrier overhead (microseconds).
  double omp_barrier_us = 15.0;
};

/// The paper's host: dual Xeon E5-2640v4.
CpuSpec xeon_e5_2640v4();

}  // namespace fastpso::vgpu
