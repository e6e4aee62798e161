// Public configuration types for the FastPSO optimizer.
#pragma once

#include <cstdint>
#include <limits>

namespace fastpso::core {

/// Which swarm-update kernel implementation to use (paper Section 3.5 and
/// Figure 6). All variants compute the same update; they differ in how the
/// element-wise matrix operations are staged on the device.
enum class UpdateTechnique {
  kGlobalMemory,  ///< plain grid-stride element-wise kernel
  kSharedMemory,  ///< TILE_SIZE x TILE_SIZE tiles staged in shared memory
  kTensorCore,    ///< warp-level 16x16 fragment (wmma-style) update
};

const char* to_string(UpdateTechnique technique);

/// Information-sharing topology (extension beyond the paper's gbest PSO;
/// the lbest ring is the classic alternative in the PSO literature the
/// paper surveys).
enum class Topology {
  kGlobal,  ///< every particle follows the swarm-global best (the paper)
  kRing,    ///< each particle follows the best of its ring neighborhood
};

const char* to_string(Topology topology);

/// Iteration synchronization (extension; cf. the asynchronous parallel PSO
/// line of work in the paper's Section 5.1).
enum class Synchronization {
  kSynchronous,   ///< the paper's four-step pipeline per iteration
  kAsynchronous,  ///< fused per-particle update with immediately-fresh gbest
};

const char* to_string(Synchronization synchronization);

/// PSO hyper-parameters and engine options. Defaults reproduce the paper's
/// experimental setup (Section 4.1): n=5000, d=200, 2000 iterations,
/// omega=0.9, c1=c2=2.
struct PsoParams {
  int particles = 5000;  ///< n
  int dim = 200;         ///< d
  int max_iter = 2000;

  float omega = 0.9f;  ///< inertia
  float c1 = 2.0f;     ///< cognitive (local) coefficient
  float c2 = 2.0f;     ///< social (global) coefficient

  std::uint64_t seed = 42;

  UpdateTechnique technique = UpdateTechnique::kGlobalMemory;

  /// Neighborhood topology. kRing requires the global-memory technique
  /// (the tiled variants assume a row-uniform attractor).
  Topology topology = Topology::kGlobal;
  /// Neighbors on each side under kRing (window of 2k+1 particles).
  int ring_neighbors = 2;

  /// Synchronous (paper) or asynchronous (fused, particle-level) updates.
  Synchronization synchronization = Synchronization::kSynchronous;

  /// Bound-constraint handling for velocities (paper Eq. 5, after
  /// Kaucic 2013). vmax = vmax_fraction * (upper - lower); velocities are
  /// clamped to [-vmax, vmax] each update.
  bool velocity_clamp = true;
  float vmax_fraction = 0.5f;

  /// Adaptive velocity bound (the convergence mechanism of Kaucic 2013,
  /// which the paper adopts for Eq. 5): the clamp anneals linearly from
  /// vmax to vmax * vmax_final_fraction over the run, turning the late
  /// phase into a fine local search around gbest. Without this, the
  /// paper's omega=0.9, c1=c2=2 setting is a bounded random walk.
  bool adaptive_velocity_bound = true;
  float vmax_final_fraction = 0.002f;

  /// Optionally clamp positions back into the search domain.
  bool position_clamp = false;

  /// Mixed precision under the tensor-core technique (paper Section 3.5:
  /// "tensor cores enable mixed-precision computing"): the multiplicand
  /// fragments (random weights and attractor deltas) are rounded through
  /// FP16 before the warp-level multiply, with FP32 accumulation — Volta
  /// tensor-core semantics. Ignored by the other techniques.
  bool mixed_precision = false;

  /// Overlapped pipeline (extension; streams): generate the NEXT
  /// iteration's random-weight matrices on a second stream while the
  /// current iteration's evaluation and best-updates run, hiding Step (i)
  /// behind Steps (ii)-(iii). Results are bit-identical to the
  /// non-overlapped pipeline (same counter-based streams); only modeled
  /// time changes. Uses persistent double-buffered weight matrices, so the
  /// memory_caching comparison (Table 4) should run with this off.
  bool overlap_init = false;

  /// Early stopping (extension; the paper always runs max_iter).
  /// Stops when gbest <= target_value (default: never), or when gbest has
  /// not improved by more than stall_tolerance for stall_patience
  /// consecutive iterations (patience <= 0 disables).
  double target_value = -std::numeric_limits<double>::infinity();
  double stall_tolerance = 0.0;
  int stall_patience = 0;

  /// GPU memory caching (paper Section 4.4 / Table 4). When false, the
  /// per-iteration random-weight matrices are re-allocated from the device
  /// every iteration (models cudaMalloc/cudaFree churn).
  bool memory_caching = true;

  /// Throws CheckError unless particles, dim and max_iter are positive and
  /// a kRing topology has the global-memory technique and a neighbourhood
  /// that fits the swarm. Optimizer, JobRun, serve::Scheduler::submit and
  /// MultiDeviceOptimizer call it before adding their own restrictions.
  void validate() const;
};

}  // namespace fastpso::core
