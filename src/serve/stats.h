// Aggregate bookkeeping of one serve::Scheduler run.
//
// Every number here is either a real counter of issued device work or a
// reported credit: graph amortization and cross-job batch packing are
// accounted against the shape cache and NEVER folded into the eager clocks
// or any job's counters — solo-vs-scheduled results stay bitwise
// identical, and the savings are auditable side channels.
//
// Cross-job batching is a tri-state (see SchedulerOptions / README):
//   * packed (FASTPSO_SERVE_PACK=1 or options.pack): cohorts EXECUTE as
//     merged dispatches (serve/packed.h); launches_real genuinely drops
//     and batch_modeled_seconds_saved is the executed credit of those
//     dispatches (still a side channel — per-job numbers are untouched).
//   * priced (options.batching, the default): the Batcher models what
//     packing would save; launches_batched/batch_modeled_seconds_saved are
//     counterfactual and launches_real == launches_issued.
//   * off (options.batching = false): no packing numbers at all.
#pragma once

#include <cstdint>

namespace fastpso::serve {

struct ServeStats {
  // -- population ---------------------------------------------------------
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t iterations = 0;  ///< scheduled job iterations executed

  // -- shape-keyed graph cache -------------------------------------------
  std::uint64_t cache_lookups = 0;  ///< one per job, at its first iteration
  std::uint64_t cache_hits = 0;     ///< shape already instantiated
  std::uint64_t graphs_captured = 0;   ///< distinct shapes instantiated
  std::uint64_t graphs_poisoned = 0;   ///< shapes forced eager (divergence)
  std::uint64_t replayed_iterations = 0;
  std::uint64_t eager_iterations = 0;  ///< capture + fallback iterations

  // -- cross-job batching (packed / priced tri-state, see header) ---------
  std::uint64_t launches_issued = 0;   ///< kernel launches accounted
  std::uint64_t launches_batched = 0;  ///< after block/warp-per-job packing
  std::uint64_t batch_rounds = 0;      ///< cohorts of >= 2 jobs packed
  double batch_modeled_seconds_saved = 0;
  /// Kernel dispatches that actually executed: in packed mode, issued
  /// launches minus deferred ones plus the cohort dispatches (and inline
  /// flush fallbacks) that replaced them; otherwise == launches_issued.
  std::uint64_t launches_real = 0;

  // -- executed packing engine (FASTPSO_SERVE_PACK=1, serve/packed.h) -----
  std::uint64_t packed_cohort_rounds = 0;  ///< cohorts stepped in lockstep
  std::uint64_t packed_iterations = 0;     ///< job iterations stepped packed
  std::uint64_t packed_deferred_launches = 0;  ///< launches deferred to lanes
  std::uint64_t packed_dispatches = 0;         ///< merged cohort dispatches
  std::uint64_t packed_warp_dispatches = 0;    ///< subset packed warp-per-job

  // -- graph amortization credit, summed over the cache -------------------
  double graph_modeled_seconds_saved = 0;

  // -- timeline -----------------------------------------------------------
  double makespan_seconds = 0;   ///< device clock when the queue drained
  double serial_seconds = 0;     ///< sum of per-job modeled work
  double scheduler_seconds = 0;  ///< modeled idle gaps the scheduler added

  /// Fraction of jobs whose shape was already instantiated when they ran
  /// their first iteration.
  [[nodiscard]] double hit_rate() const {
    return cache_lookups > 0
               ? static_cast<double>(cache_hits) /
                     static_cast<double>(cache_lookups)
               : 0.0;
  }

  /// Fraction of issued launches the packing model removes (priced mode:
  /// the union-rule counterfactual; packed mode: launches_batched tracks
  /// the real dispatch count, so this equals real_launch_reduction()).
  [[nodiscard]] double batch_launch_reduction() const {
    return launches_issued > 0
               ? 1.0 - static_cast<double>(launches_batched) /
                           static_cast<double>(launches_issued)
               : 0.0;
  }

  /// Fraction of accounted launches that never executed as their own
  /// dispatch — the *measured* reduction the packed engine delivers
  /// (exactly 0 outside packed mode).
  [[nodiscard]] double real_launch_reduction() const {
    return launches_issued > 0
               ? 1.0 - static_cast<double>(launches_real) /
                           static_cast<double>(launches_issued)
               : 0.0;
  }

  // Each *_modeled_seconds() helper is an INDEPENDENT counterfactual
  // against the serial work total — reported, never applied. The credits
  // answer different what-ifs and are not additive: do not sum them
  // against makespan_seconds or each other.

  /// Serial modeled work if same-shape cohort launches were block-packed.
  [[nodiscard]] double batched_modeled_seconds() const {
    return serial_seconds - batch_modeled_seconds_saved;
  }

  /// Serial modeled work under the graph cache's launch-setup elision.
  [[nodiscard]] double graph_modeled_seconds() const {
    return serial_seconds - graph_modeled_seconds_saved;
  }
};

}  // namespace fastpso::serve
