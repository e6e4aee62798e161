// RAII toggles for the process-wide engine switches, so a failing
// assertion cannot leave a switch flipped for the rest of a test binary.
#pragma once

#include "vgpu/device.h"
#include "vgpu/prof/prof.h"

namespace fastpso {

/// Host fast path (the in-process FASTPSO_FAST_PATH).
class FastPathGuard {
 public:
  explicit FastPathGuard(bool enabled) : saved_(vgpu::fast_path_enabled()) {
    vgpu::set_fast_path_enabled(enabled);
  }
  ~FastPathGuard() { vgpu::set_fast_path_enabled(saved_); }

  FastPathGuard(const FastPathGuard&) = delete;
  FastPathGuard& operator=(const FastPathGuard&) = delete;

 private:
  bool saved_;
};

/// Profiler capture (the in-process FASTPSO_PROF).
class ProfGuard {
 public:
  explicit ProfGuard(bool enabled) : saved_(vgpu::prof::active()) {
    vgpu::prof::set_enabled(enabled);
  }
  ~ProfGuard() { vgpu::prof::set_enabled(saved_); }

  ProfGuard(const ProfGuard&) = delete;
  ProfGuard& operator=(const ProfGuard&) = delete;

 private:
  bool saved_;
};

}  // namespace fastpso
