// Joined configuration subspaces with validity predicates (DESIGN.md §13).
//
// A kernel family's tunables — block size and items per thread for a
// MiniGBM kernel site — are each a small discrete Axis. A
// JoinedSpace is their cross product joined by named validity predicates
// (occupancy, shared-memory arena fit, divisibility), the AMOS-style
// construction of SNIPPETS.md snippets 1-3: the search only ever scores
// points that every predicate admits, so no invalid configuration can be
// emitted into a tuned table (a property test_tune.cpp pins).
//
// Points decode from PSO positions exactly like the Table 5 ThreadConf
// study decodes kernel configs (clamp01(x) * choices indexing), which is
// what lets FastPSO itself search these spaces.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace fastpso::tune {

/// One discrete tunable: a named, ordered list of admissible values.
struct Axis {
  std::string name;
  std::vector<int> values;
};

/// A configuration point: one chosen value per axis, in axis order.
using Point = std::vector<int>;

/// A named validity predicate over a full point (axis-order values).
struct Predicate {
  std::string name;
  std::function<bool(const Point&)> ok;
};

/// Cross product of axes filtered by predicates.
class JoinedSpace {
 public:
  JoinedSpace& add_axis(std::string name, std::vector<int> values);
  JoinedSpace& add_predicate(std::string name,
                             std::function<bool(const Point&)> ok);

  [[nodiscard]] const std::vector<Axis>& axes() const { return axes_; }
  [[nodiscard]] int axis_count() const {
    return static_cast<int>(axes_.size());
  }
  /// Index of the named axis (-1 if absent).
  [[nodiscard]] int axis_index(std::string_view name) const;

  /// Unfiltered cross-product size.
  [[nodiscard]] std::int64_t cardinality() const;

  /// True when every predicate admits `point` (which must have one value
  /// per axis, each drawn from that axis's value list).
  [[nodiscard]] bool valid(const Point& point) const;
  /// Name of the first predicate rejecting `point`, or "" when valid.
  [[nodiscard]] std::string first_violation(const Point& point) const;

  /// Decodes a PSO position (one [0,1] component per axis; shorter
  /// positions wrap cyclically) into a point via clamp01(x)*size indexing —
  /// the ThreadConf decode generalized to arbitrary axes.
  [[nodiscard]] Point decode(std::span<const float> position) const;

  /// All valid points in lexicographic axis order (for exhaustive probes
  /// and the validity property tests; spaces here are tiny).
  [[nodiscard]] std::vector<Point> enumerate_valid() const;

  /// Neighbors of `point` along each axis (index +/- 1), valid ones only.
  [[nodiscard]] std::vector<Point> neighbors(const Point& point) const;

 private:
  std::vector<Axis> axes_;
  std::vector<Predicate> predicates_;
};

}  // namespace fastpso::tune
