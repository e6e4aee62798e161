// Caching device-memory allocator (the paper's "GPU memory caching",
// Section 4.4 / Table 4).
//
// The first allocation of a given size goes to the device (modeled
// cudaMalloc cost); a free() keeps the block in a size-keyed cache, and the
// next allocation of that size is served from the cache at near-zero cost.
// PSO allocates the same (n x d) matrices every iteration, so after the
// first iteration every request is a cache hit — exactly the behaviour the
// paper measures as a 3.7–5% end-to-end win (Table 4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fastpso::vgpu {

class Device;

/// Size-bucketed caching allocator over Device::raw_alloc/raw_free.
class MemoryPool {
 public:
  /// `enabled == false` degrades to pass-through (models re-allocation).
  explicit MemoryPool(Device& device, bool enabled = true);
  ~MemoryPool();

  MemoryPool(const MemoryPool&) = delete;
  MemoryPool& operator=(const MemoryPool&) = delete;

  void* alloc(std::size_t bytes);
  void free(void* p);

  /// Turns caching on/off; releases the cache when turning off.
  void set_enabled(bool enabled);
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Returns all cached (unused) blocks to the device.
  void release_cache();

  [[nodiscard]] std::uint64_t cache_hits() const { return hits_; }
  [[nodiscard]] std::uint64_t cache_misses() const { return misses_; }
  [[nodiscard]] std::size_t cached_blocks() const;
  [[nodiscard]] std::size_t outstanding() const { return live_.size(); }

 private:
  /// Free blocks of one size, in the order they were freed.
  struct SizeClass {
    std::size_t bytes = 0;
    std::vector<void*> blocks;
  };
  /// A block handed out and not yet freed.
  struct LiveBlock {
    void* ptr = nullptr;
    std::size_t bytes = 0;
  };

  Device& device_;
  bool enabled_;
  // A pool serves a handful of sizes and holds about ten live blocks, so
  // the lookups on every alloc and free are short linear scans.
  std::vector<SizeClass> cache_;  ///< ascending bytes
  std::vector<LiveBlock> live_;   ///< searched from the back (LIFO frees)
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace fastpso::vgpu
