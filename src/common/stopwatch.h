// Wall-clock stopwatch and a named accumulator used for the per-step
// breakdown measurements (Figure 5 of the paper).
#pragma once

#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

namespace fastpso {

/// Simple monotonic wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() { reset(); }

  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double elapsed_s() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// An interned phase name: a small integer that indexes TimeBreakdown's
/// values and tags a Device's modeled time, so hot paths never compare or
/// hash strings. "default" and the paper's five steps have fixed ids; any
/// other name gets the next free id from intern_phase() on first use.
enum class PhaseId : std::uint8_t {
  kDefault = 0,
  kInit,
  kEval,
  kPbest,
  kGbest,
  kSwarm,
};

/// Distinct phase names one process may intern (the repository uses fewer
/// than 25); intern_phase() throws CheckError beyond it.
inline constexpr std::size_t kMaxPhases = 64;

/// Id of `name`, registering it on first use. Process-wide and
/// mutex-guarded: a cold path for string-keyed call sites.
[[nodiscard]] PhaseId intern_phase(std::string_view name);
/// Name of an interned id. The reference stays valid for the process.
[[nodiscard]] const std::string& phase_name(PhaseId id);

/// Accumulates wall-clock time under named keys; used to break an
/// optimizer run down into the paper's five steps
/// (init / eval / pbest / gbest / swarm).
///
/// Values live in one heap block indexed by PhaseId, allocated at the first
/// add() or slot(). Slot pointers therefore survive moves of the object,
/// and the block sits on the heap above the owner's earlier allocations;
/// inline storage measured 4-5x the page faults of a solo cold start
/// (DESIGN.md §5). Exports stay keyed by name: buckets() iterates in name
/// order and total() sums in that order.
class TimeBreakdown {
 public:
  /// Adds `seconds` to the bucket `key`.
  void add(PhaseId key, double seconds) { *slot(key) += seconds; }
  void add(std::string_view key, double seconds) {
    add(intern_phase(key), seconds);
  }

  /// Total seconds recorded under `key` (0 if never recorded; does not
  /// create the key).
  [[nodiscard]] double get(std::string_view key) const;

  /// Sum across all buckets, in name order.
  [[nodiscard]] double total() const;

  /// The recorded buckets keyed by name (name order).
  [[nodiscard]] std::map<std::string, double> buckets() const;

  /// Stable pointer to `key`'s accumulator (created at 0 if absent) so hot
  /// paths can skip the lookup. Invalidated by clear() and assignment, not
  /// by add() or a move of the object.
  [[nodiscard]] double* slot(PhaseId key) {
    if (values_ == nullptr) [[unlikely]] {
      values_ = std::make_unique<double[]>(kMaxPhases);
    }
    present_ |= bit(key);
    return &values_[index(key)];
  }
  [[nodiscard]] double* slot(std::string_view key) {
    return slot(intern_phase(key));
  }

  TimeBreakdown() = default;
  // Copies get their own storage and a fresh epoch: their slot pointers
  // differ from the source's, so any cache keyed on (address, epoch) must
  // re-resolve. A move hands the storage over; the source takes a fresh
  // epoch because its old slot pointers now belong to the target.
  TimeBreakdown(const TimeBreakdown& other);
  TimeBreakdown(TimeBreakdown&& other) noexcept;
  TimeBreakdown& operator=(const TimeBreakdown& other);
  TimeBreakdown& operator=(TimeBreakdown&& other) noexcept;

  /// Identifies the current set of slot pointers: process-unique, replaced
  /// by clear() and assignment. Lets slot caches detect invalidation with
  /// one compare instead of re-resolving every time.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  void clear();

  /// Merges another breakdown into this one (bucket-wise addition).
  void merge(const TimeBreakdown& other);

 private:
  static std::uint64_t next_epoch() {
    static std::uint64_t counter = 0;
    return ++counter;
  }
  static std::size_t index(PhaseId key) {
    return static_cast<std::size_t>(key);
  }
  static std::uint64_t bit(PhaseId key) {
    return std::uint64_t{1} << index(key);
  }
  /// Calls fn(id, value) for every created bucket, in id order.
  template <typename Fn>
  void for_each_bucket(Fn&& fn) const {
    for (std::uint64_t bits = present_; bits != 0; bits &= bits - 1) {
      const auto id = static_cast<PhaseId>(std::countr_zero(bits));
      fn(id, values_[index(id)]);
    }
  }

  static_assert(kMaxPhases <= 64, "presence bits live in one word");
  std::unique_ptr<double[]> values_;  ///< kMaxPhases values, or null
  std::uint64_t present_ = 0;         ///< bit i: bucket i was created
  std::uint64_t epoch_ = next_epoch();
};

/// RAII helper: measures a scope and adds it to a breakdown bucket.
class ScopedTimer {
 public:
  ScopedTimer(TimeBreakdown& sink, PhaseId key) : sink_(sink), key_(key) {}
  ScopedTimer(TimeBreakdown& sink, std::string_view key)
      : ScopedTimer(sink, intern_phase(key)) {}
  ~ScopedTimer() { sink_.add(key_, watch_.elapsed_s()); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  TimeBreakdown& sink_;
  PhaseId key_;
  Stopwatch watch_;
};

}  // namespace fastpso
