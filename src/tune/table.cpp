#include "tune/table.h"

#include <charconv>
#include <fstream>

namespace fastpso::tune {
namespace {

/// Shortest representation that round-trips the exact double.
std::string format_double(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

}  // namespace

std::string TunedTable::to_csv() const {
  std::string out =
      "group,point,default_us,tuned_us,predicted_speedup,"
      "executed_default_us,executed_tuned_us,executed_speedup\n";
  for (const GroupResult& group : groups_) {
    const double predicted_speedup =
        group.tuned_us > 0 ? group.default_us / group.tuned_us : 1.0;
    const double executed_speedup =
        group.executed_tuned_us > 0
            ? group.executed_default_us / group.executed_tuned_us
            : 1.0;
    out += group.key + "," + group.point + "," +
           format_double(group.default_us) + "," +
           format_double(group.tuned_us) + "," +
           format_double(predicted_speedup) + "," +
           format_double(group.executed_default_us) + "," +
           format_double(group.executed_tuned_us) + "," +
           format_double(executed_speedup) + "\n";
  }
  return out;
}

bool TunedTable::save_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) {
    return false;
  }
  out << to_csv();
  return out.good();
}

}  // namespace fastpso::tune
