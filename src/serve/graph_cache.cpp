#include "serve/graph_cache.h"

#include "common/check.h"
#include "vgpu/device.h"

namespace fastpso::serve {

GraphCache::GraphCache(vgpu::Device& device) : device_(device) {}

GraphCache::IterationMode GraphCache::begin_iteration(const JobShape& shape,
                                                      int stream) {
  Entry& entry = entries_[shape];
  if (entry.poisoned) {
    return IterationMode::kEager;
  }
  if (entry.exec != nullptr) {
    entry.exec->set_replay_stream(stream);
    device_.begin_replay(*entry.exec);
    return IterationMode::kReplay;
  }
  entry.graph.clear();
  device_.begin_capture(entry.graph);
  return IterationMode::kCapture;
}

bool GraphCache::end_iteration(const JobShape& shape, IterationMode mode) {
  if (mode == IterationMode::kEager) {
    return true;
  }
  auto it = entries_.find(shape);
  FASTPSO_CHECK_MSG(it != entries_.end(), "end_iteration for unknown shape");
  Entry& entry = it->second;
  if (mode == IterationMode::kCapture) {
    device_.end_capture();
    if (entry.graph.empty()) {
      // An iteration that launched nothing cannot anchor replay matching.
      entry.poisoned = true;
      return false;
    }
    entry.exec = std::make_unique<vgpu::graph::GraphExec>(
        entry.graph.instantiate(device_.perf()));
    return true;
  }
  // kReplay: a diverged replay already fell back to eager accounting for
  // the unmatched launches (numbers unharmed); poisoning just stops paying
  // the per-iteration replay setup for a shape that no longer matches.
  const bool clean = device_.end_replay();
  if (!clean) {
    entry.poisoned = true;
  }
  return clean;
}

const vgpu::graph::GraphExec* GraphCache::exec(const JobShape& shape) const {
  const auto it = entries_.find(shape);
  if (it == entries_.end() || it->second.poisoned) {
    return nullptr;
  }
  return it->second.exec.get();
}

vgpu::graph::GraphExec* GraphCache::exec_mutable(const JobShape& shape) {
  const auto it = entries_.find(shape);
  if (it == entries_.end() || it->second.poisoned) {
    return nullptr;
  }
  return it->second.exec.get();
}

void GraphCache::poison(const JobShape& shape) {
  const auto it = entries_.find(shape);
  FASTPSO_CHECK_MSG(it != entries_.end(), "poison for unknown shape");
  it->second.poisoned = true;
}

std::uint64_t GraphCache::graphs_captured() const {
  std::uint64_t count = 0;
  for (const auto& [shape, entry] : entries_) {
    (void)shape;
    count += entry.exec != nullptr ? 1 : 0;
  }
  return count;
}

std::uint64_t GraphCache::graphs_poisoned() const {
  std::uint64_t count = 0;
  for (const auto& [shape, entry] : entries_) {
    (void)shape;
    count += entry.poisoned ? 1 : 0;
  }
  return count;
}

double GraphCache::graph_seconds_saved() const {
  double saved = 0;
  for (const auto& [shape, entry] : entries_) {
    (void)shape;
    if (entry.exec != nullptr) {
      saved += entry.exec->stats().modeled_seconds_saved;
    }
  }
  return saved;
}

}  // namespace fastpso::serve
