#include "common/stopwatch.h"

#include <algorithm>
#include <array>
#include <mutex>
#include <utility>

#include "common/check.h"

namespace fastpso {

namespace {

struct PhaseRegistry {
  std::mutex mutex;
  /// Fixed storage, so phase_name() references never move. An entry is
  /// written once, under the mutex, before its id is handed out.
  std::array<std::string, kMaxPhases> names{
      {"default", "init", "eval", "pbest", "gbest", "swarm"}};
  std::size_t size = 6;  ///< guarded by mutex
};

PhaseRegistry& registry() {
  static PhaseRegistry instance;
  return instance;
}

}  // namespace

PhaseId intern_phase(std::string_view name) {
  PhaseRegistry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  for (std::size_t i = 0; i < r.size; ++i) {
    if (r.names[i] == name) {
      return static_cast<PhaseId>(i);
    }
  }
  FASTPSO_CHECK_MSG(r.size < kMaxPhases,
                    "too many distinct phase names (limit " +
                        std::to_string(kMaxPhases) + ")");
  r.names[r.size] = std::string(name);
  return static_cast<PhaseId>(r.size++);
}

const std::string& phase_name(PhaseId id) {
  return registry().names[static_cast<std::size_t>(id)];
}

TimeBreakdown::TimeBreakdown(const TimeBreakdown& other)
    : present_(other.present_) {
  if (other.values_ != nullptr) {
    values_ = std::make_unique<double[]>(kMaxPhases);
    std::copy_n(other.values_.get(), kMaxPhases, values_.get());
  }
}

TimeBreakdown::TimeBreakdown(TimeBreakdown&& other) noexcept
    : values_(std::move(other.values_)),
      present_(std::exchange(other.present_, 0)) {
  other.epoch_ = next_epoch();
}

TimeBreakdown& TimeBreakdown::operator=(const TimeBreakdown& other) {
  return *this = TimeBreakdown(other);
}

TimeBreakdown& TimeBreakdown::operator=(TimeBreakdown&& other) noexcept {
  values_ = std::move(other.values_);
  present_ = std::exchange(other.present_, 0);
  other.epoch_ = next_epoch();
  epoch_ = next_epoch();
  return *this;
}

double TimeBreakdown::get(std::string_view key) const {
  // Compares names rather than interning `key`: a lookup must not register
  // a name that nothing ever added.
  double out = 0.0;
  for_each_bucket([&](PhaseId id, double value) {
    if (phase_name(id) == key) {
      out = value;
    }
  });
  return out;
}

std::map<std::string, double> TimeBreakdown::buckets() const {
  std::map<std::string, double> out;
  for_each_bucket([&out](PhaseId id, double value) {
    out.emplace(phase_name(id), value);
  });
  return out;
}

double TimeBreakdown::total() const {
  double sum = 0.0;
  for (const auto& [key, value] : buckets()) {
    (void)key;
    sum += value;
  }
  return sum;
}

void TimeBreakdown::clear() {
  if (values_ != nullptr) {
    std::fill_n(values_.get(), kMaxPhases, 0.0);
  }
  present_ = 0;
  epoch_ = next_epoch();
}

void TimeBreakdown::merge(const TimeBreakdown& other) {
  other.for_each_bucket([this](PhaseId id, double value) { add(id, value); });
}

}  // namespace fastpso
