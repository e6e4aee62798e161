// Workload shapes and shape grouping (DESIGN.md §13).
//
// A WorkloadShape is one concrete launch site: a kernel family label plus
// the problem geometry (swarm size n, problem dim d, and the derived
// element count the kernel iterates over). Tuning every exact shape would
// overfit and bloat the tables, so shapes cluster into ShapeGroups keyed on
// (kernel, power-of-two element bucket), and one searched group's winner
// is stored under the group's shape_key. Grouping is deterministic: sorted
// by key, representative = the group's largest shape (ties to the smaller
// dim), independent of input order.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fastpso::tune {

/// One concrete workload: kernel family label x problem geometry.
struct WorkloadShape {
  std::string kernel;        ///< family label ("tgbm/<site>")
  std::int64_t elements = 1; ///< items the kernel iterates over
  int dim = 1;               ///< problem dimensionality d
  int swarm = 1;             ///< swarm size n

  [[nodiscard]] bool operator==(const WorkloadShape&) const = default;
};

/// A cluster of shapes sharing one tuned-table entry.
struct ShapeGroup {
  std::string kernel;
  int bucket = 0;  ///< elements_bucket of every member
  WorkloadShape representative;
  std::vector<WorkloadShape> shapes;

  /// Canonical group key, equal to the store key prefix this group's
  /// winning configuration is emitted under: "<kernel>/b<bucket>".
  [[nodiscard]] std::string key() const;
};

/// Power-of-two bucket of an element count: floor(log2(elements)), and 0
/// for elements <= 0. Shapes that share a bucket share one store entry.
[[nodiscard]] int elements_bucket(std::int64_t elements);

/// Store key prefix of one kernel family at one shape bucket:
/// "<kernel>/b<bucket>". Axis keys append "/<axis>".
[[nodiscard]] std::string shape_key(std::string_view kernel,
                                    std::int64_t elements);

/// Clusters shapes into groups. Deterministic: output sorted by key, group
/// members sorted by (elements, dim, swarm), duplicates removed.
std::vector<ShapeGroup> group_shapes(std::vector<WorkloadShape> shapes);

}  // namespace fastpso::tune
