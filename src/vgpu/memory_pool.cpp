#include "vgpu/memory_pool.h"

#include <algorithm>

#include "common/check.h"
#include "vgpu/device.h"

namespace fastpso::vgpu {

MemoryPool::MemoryPool(Device& device, bool enabled)
    : device_(device), enabled_(enabled) {}

MemoryPool::~MemoryPool() {
  // Outstanding blocks are the caller's bug, but the cache is ours.
  release_cache();
}

void* MemoryPool::alloc(std::size_t bytes) {
  FASTPSO_CHECK_MSG(bytes > 0, "zero-byte pool allocation");
  if (enabled_) {
    for (SizeClass& size_class : cache_) {
      if (size_class.bytes == bytes && !size_class.blocks.empty()) {
        void* p = size_class.blocks.back();
        size_class.blocks.pop_back();
        live_.push_back({p, bytes});
        ++hits_;
        return p;
      }
    }
  }
  ++misses_;
  void* p = device_.raw_alloc(bytes);
  live_.push_back({p, bytes});
  return p;
}

void MemoryPool::free(void* p) {
  const auto it = std::find_if(live_.rbegin(), live_.rend(),
                               [p](const LiveBlock& b) { return b.ptr == p; });
  FASTPSO_CHECK_MSG(it != live_.rend(),
                    "pool free of unknown or already-freed pointer");
  const std::size_t bytes = it->bytes;
  *it = live_.back();  // the live list is unordered
  live_.pop_back();
  if (enabled_) {
    auto size_class = std::lower_bound(
        cache_.begin(), cache_.end(), bytes,
        [](const SizeClass& c, std::size_t b) { return c.bytes < b; });
    if (size_class == cache_.end() || size_class->bytes != bytes) {
      size_class = cache_.insert(size_class, SizeClass{bytes, {}});
    }
    size_class->blocks.push_back(p);
  } else {
    device_.raw_free(p);
  }
}

void MemoryPool::set_enabled(bool enabled) {
  if (enabled_ && !enabled) {
    release_cache();
  }
  enabled_ = enabled;
}

void MemoryPool::release_cache() {
  // Ascending size, each size in free order: profiler kFree events carry
  // the byte count, so this order is part of the trace.
  for (SizeClass& size_class : cache_) {
    for (void* p : size_class.blocks) {
      device_.raw_free(p);
    }
    size_class.blocks.clear();
  }
  cache_.clear();
}

std::size_t MemoryPool::cached_blocks() const {
  std::size_t count = 0;
  for (const SizeClass& size_class : cache_) {
    count += size_class.blocks.size();
  }
  return count;
}

}  // namespace fastpso::vgpu
