#include "tune/shapes.h"

#include <algorithm>
#include <bit>
#include <map>
#include <utility>

namespace fastpso::tune {

int elements_bucket(std::int64_t elements) {
  const auto bits = std::bit_width(static_cast<std::uint64_t>(elements));
  return elements <= 0 ? 0 : static_cast<int>(bits) - 1;
}

std::string shape_key(std::string_view kernel, std::int64_t elements) {
  std::string key(kernel);
  key += "/b";
  key += std::to_string(elements_bucket(elements));
  return key;
}

std::string ShapeGroup::key() const {
  return kernel + "/b" + std::to_string(bucket);
}

std::vector<ShapeGroup> group_shapes(std::vector<WorkloadShape> shapes) {
  std::map<std::pair<std::string, int>, ShapeGroup> groups;
  for (WorkloadShape& shape : shapes) {
    const int bucket = elements_bucket(shape.elements);
    auto [it, inserted] =
        groups.try_emplace({shape.kernel, bucket}, ShapeGroup{});
    ShapeGroup& group = it->second;
    if (inserted) {
      group.kernel = shape.kernel;
      group.bucket = bucket;
    }
    group.shapes.push_back(std::move(shape));
  }

  std::vector<ShapeGroup> out;
  out.reserve(groups.size());
  for (auto& [key, group] : groups) {
    auto order = [](const WorkloadShape& a, const WorkloadShape& b) {
      return std::tie(a.elements, a.dim, a.swarm) <
             std::tie(b.elements, b.dim, b.swarm);
    };
    std::sort(group.shapes.begin(), group.shapes.end(), order);
    group.shapes.erase(std::unique(group.shapes.begin(), group.shapes.end()),
                       group.shapes.end());
    // Largest member represents the group (the bucket's lookup serves it
    // too, and the big shape dominates the bucket's runtime); the sort puts
    // the smaller dim first among equal element counts.
    for (const WorkloadShape& shape : group.shapes) {
      if (shape.elements > group.representative.elements ||
          group.representative.kernel.empty()) {
        group.representative = shape;
      }
    }
    out.push_back(std::move(group));
  }
  return out;
}

}  // namespace fastpso::tune
