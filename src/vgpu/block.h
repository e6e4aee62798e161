// Cooperative block execution with shared memory and barrier phases.
//
// The virtual GPU executes a block's threads as *phases*: the kernel body
// calls `block.for_each_thread(...)` to run a piece of straight-line code on
// every thread of the block, then `block.sync()` to mark a __syncthreads
// boundary, then the next phase. Running each phase to completion before the
// next starts gives exactly the cross-thread visibility guarantees of a real
// barrier, provided threads do not race within a phase (same requirement as
// real CUDA).
//
// Shared memory is a bump arena checked against the device's
// shared_mem_per_block, so a kernel that over-allocates shared memory fails
// loudly (as a real launch would). The arena's storage lives on the Device
// and is acquired lazily on the first shared_array call: constructing a
// BlockCtx does zero heap allocation and no zero-fill, and kernels that
// request no shared memory never touch the arena at all. The storage is
// reused across blocks and launches without clearing — CUDA shared memory
// carries no cross-block initialization guarantee either, and the
// sanitizer's race checker enforces the write-before-read contract this
// relies on.
#pragma once

#include <cstddef>
#include <span>

#include "common/check.h"
#include "vgpu/device.h"

namespace fastpso::vgpu {

/// Per-block execution context handed to launch_blocks bodies.
class BlockCtx {
 public:
  BlockCtx(Device& device, std::int64_t block_idx, const LaunchConfig& cfg,
           std::size_t shared_limit)
      : device_(&device), block_idx_(block_idx), cfg_(cfg),
        shared_limit_(shared_limit) {}

  [[nodiscard]] std::int64_t block_idx() const { return block_idx_; }
  [[nodiscard]] int block_dim() const { return cfg_.block; }
  [[nodiscard]] std::int64_t grid_dim() const { return cfg_.grid; }

  /// Allocates `count` Ts of shared memory for this block. Mirrors
  /// `__shared__ T buf[count]`. Throws when the block's shared budget is
  /// exceeded.
  template <typename T>
  std::span<T> shared_array(std::size_t count) {
    const std::size_t align = alignof(T);
    std::size_t offset = (arena_used_ + align - 1) / align * align;
    const std::size_t bytes = count * sizeof(T);
    FASTPSO_CHECK_MSG(offset + bytes <= shared_limit_,
                      "shared memory budget exceeded");
    if (arena_ == nullptr) {
      arena_ = device_->shared_scratch(shared_limit_);
    }
    arena_used_ = offset + bytes;
    return {reinterpret_cast<T*>(arena_ + offset), count};
  }

  /// Runs `fn(ThreadCtx)` for every thread of this block (one phase).
  template <typename Fn>
  void for_each_thread(Fn&& fn) {
    ThreadCtx ctx;
    ctx.block_idx = block_idx_;
    ctx.block_dim = cfg_.block;
    ctx.grid_dim = cfg_.grid;
    if (san::active()) [[unlikely]] {
      for (int t = 0; t < cfg_.block; ++t) {
        ctx.thread_idx = t;
        san::hook_thread_begin(block_idx_, t);
        fn(static_cast<const ThreadCtx&>(ctx));
      }
      // Code after this phase runs at block scope again (thread 0).
      san::hook_thread_begin(block_idx_, 0);
      return;
    }
    for (int t = 0; t < cfg_.block; ++t) {
      ctx.thread_idx = t;
      fn(static_cast<const ThreadCtx&>(ctx));
    }
  }

  /// Marks a __syncthreads boundary between phases.
  void sync() {
    ++sync_count_;
    san::hook_barrier();
  }

  [[nodiscard]] int sync_count() const { return sync_count_; }
  [[nodiscard]] std::size_t shared_bytes_used() const { return arena_used_; }

 private:
  Device* device_;
  std::int64_t block_idx_;
  LaunchConfig cfg_;
  std::size_t shared_limit_;
  std::byte* arena_ = nullptr;
  std::size_t arena_used_ = 0;
  int sync_count_ = 0;
};

template <typename Body>
void Device::launch_blocks(const LaunchConfig& cfg, const KernelCostSpec& cost,
                           Body&& body) {
  launch_inline(cfg, cost, [&] {
    if (san::active()) [[unlikely]] {
      san::hook_launch_begin(cfg, cost);
      for (std::int64_t b = 0; b < cfg.grid; ++b) {
        san::hook_block_begin(b);
        BlockCtx block(*this, b, cfg, spec_.shared_mem_per_block);
        body(block);
      }
      san::hook_launch_end();
      return;
    }
    for (std::int64_t b = 0; b < cfg.grid; ++b) {
      BlockCtx block(*this, b, cfg, spec_.shared_mem_per_block);
      body(block);
    }
  });
}

}  // namespace fastpso::vgpu
