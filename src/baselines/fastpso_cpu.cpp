// fastpso-seq and fastpso-omp: the CPU ports of FastPSO used in the paper
// to isolate the GPU contribution (Table 1, Figure 5).
//
// Both execute the identical four-step algorithm. Timing: wall-clock is
// measured on this machine; the paper-comparable modeled time comes from
// CpuPerfModel with the paper host's constants (dual Xeon E5-2640v4) — with
// threads=1 for the sequential version and threads=cores for the OpenMP
// version, whose speedup is bandwidth-limited exactly as the paper observes
// (fastpso-omp gains only ~1.3x over fastpso-seq despite 20 cores).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "baselines/baselines.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "core/swarm_update.h"
#include "rng/philox.h"
#include "rng/xoshiro.h"
#include "vgpu/parallel.h"
#include "vgpu/perf_model.h"
#include "vgpu/prof/prof.h"

namespace fastpso::baselines {
namespace {

/// Modeled FLOP cost of one host RNG draw (xoshiro/Philox, amortized,
/// partially vectorized by the compiler).
constexpr double kCpuRngFlopsPerValue = 2.0;
/// Below this many elements the OpenMP fork/join costs more than the loop;
/// every parallel region here is element-independent (counter-based Philox,
/// fixed static partition), so running it on one thread produces bit-
/// identical results — only wall time changes.
constexpr std::size_t kOmpMinElements = std::size_t{1} << 15;
/// FLOPs of one element-wise velocity+position update.
constexpr double kUpdateFlopsPerElement = 10.0;

struct CpuSwarm {
  std::vector<float> p;
  std::vector<float> v;
  std::vector<float> l;
  std::vector<float> g;
  std::vector<float> pbest_pos;
  std::vector<float> pbest_err;
  std::vector<float> perror;
  std::vector<float> gbest_pos;
  float gbest = std::numeric_limits<float>::infinity();
};

core::Result run_fastpso_cpu(const core::Objective& objective,
                             const core::PsoParams& params, bool use_omp) {
  params.validate();
  FASTPSO_CHECK(static_cast<bool>(objective.fn));
  const int n = params.particles;
  const int d = params.dim;
  const std::size_t elements = static_cast<std::size_t>(n) * d;

  const core::UpdateCoefficients coeff =
      core::make_coefficients(params, objective.lower, objective.upper);
  const float lo = static_cast<float>(objective.lower);
  const float hi = static_cast<float>(objective.upper);
  const float v_init = coeff.vmax > 0.0f ? coeff.vmax : (hi - lo);

  const vgpu::CpuPerfModel cpu(vgpu::xeon_e5_2640v4());
  const int model_threads = use_omp ? cpu.spec().cores : 1;

  TimeBreakdown wall;
  TimeBreakdown modeled;
  vgpu::prof::Profile profile;
  // Folds one modeled host region into both the Figure 5 breakdown and (when
  // profiling) the event timeline, with the *same* double so the profile's
  // per-phase sums reproduce the breakdown exactly.
  const auto account = [&](const char* phase, const char* label,
                           double seconds) {
    modeled.add(phase, seconds);
    if (vgpu::prof::active()) {
      profile.add_host(label, phase, seconds);
    }
  };
  Stopwatch total_watch;

  CpuSwarm s;
  s.p.resize(elements);
  s.v.resize(elements);
  s.l.resize(elements);
  s.g.resize(elements);
  s.pbest_pos.resize(elements);
  s.pbest_err.assign(n, std::numeric_limits<float>::infinity());
  s.perror.assign(n, 0.0f);
  s.gbest_pos.assign(d, 0.0f);

  // ---- Step (i): initialization --------------------------------------
  // seq draws sequentially from xoshiro; omp uses the counter-based
  // Philox streams so the result is identical for any thread count.
  rng::Xoshiro256 seq_rng(params.seed);
  const rng::PhiloxStream omp_pos(params.seed ^ 0xA5A5A5A5u, 0);
  const rng::PhiloxStream omp_vel(params.seed ^ 0xA5A5A5A5u, 1);
  {
    ScopedTimer timer(wall, "init");
    if (use_omp) {
      const std::size_t blocks = (elements + 3) / 4;
#pragma omp parallel for schedule(static) if (elements >= kOmpMinElements)
      for (std::size_t b = 0; b < blocks; ++b) {
        const auto rp = omp_pos.uniform4_at(b);
        const auto rv = omp_vel.uniform4_at(b);
        const std::size_t base = b * 4;
        for (int lane = 0; lane < 4 && base + lane < elements; ++lane) {
          s.p[base + lane] = lo + (hi - lo) * rp[lane];
          s.v[base + lane] = -v_init + 2.0f * v_init * rv[lane];
        }
      }
    } else {
      for (std::size_t i = 0; i < elements; ++i) {
        s.p[i] = lo + (hi - lo) * seq_rng.next_unit_float();
      }
      for (std::size_t i = 0; i < elements; ++i) {
        s.v[i] = -v_init + 2.0f * v_init * seq_rng.next_unit_float();
      }
    }
    std::copy(s.p.begin(), s.p.end(), s.pbest_pos.begin());
    account("init", "init/swarm_init",
            cpu.region_seconds(
                model_threads,
                kCpuRngFlopsPerValue * 2.0 * static_cast<double>(elements), 0,
                3.0 * static_cast<double>(elements) * sizeof(float)));
  }

  std::vector<float> gbest_history;
  gbest_history.reserve(static_cast<std::size_t>(params.max_iter));
  for (int iter = 0; iter < params.max_iter; ++iter) {
    // ---- Step (i) cont.: random-weight matrices L and G ----------------
    {
      ScopedTimer timer(wall, "init");
      if (use_omp) {
        const rng::PhiloxStream l_rng(params.seed ^ 0xA5A5A5A5u,
                                      2 + 2 * static_cast<std::uint64_t>(iter));
        const rng::PhiloxStream g_rng(params.seed ^ 0xA5A5A5A5u,
                                      3 + 2 * static_cast<std::uint64_t>(iter));
        const std::size_t blocks = (elements + 3) / 4;
#pragma omp parallel for schedule(static) if (elements >= kOmpMinElements)
        for (std::size_t b = 0; b < blocks; ++b) {
          const auto rl = l_rng.uniform4_at(b);
          const auto rg = g_rng.uniform4_at(b);
          const std::size_t base = b * 4;
          for (int lane = 0; lane < 4 && base + lane < elements; ++lane) {
            s.l[base + lane] = rl[lane];
            s.g[base + lane] = rg[lane];
          }
        }
      } else {
        for (std::size_t i = 0; i < elements; ++i) {
          s.l[i] = seq_rng.next_unit_float();
        }
        for (std::size_t i = 0; i < elements; ++i) {
          s.g[i] = seq_rng.next_unit_float();
        }
      }
      account("init", "init/weights",
              cpu.region_seconds(
                  model_threads,
                  kCpuRngFlopsPerValue * 2.0 * static_cast<double>(elements),
                  0, 2.0 * static_cast<double>(elements) * sizeof(float)));
    }

    // ---- Step (ii): evaluation ------------------------------------------
    {
      ScopedTimer timer(wall, "eval");
      if (objective.batch_fn) {
        // Devirtualized batch loop over contiguous row ranges; under OpenMP
        // the rows split across the host workers (vgpu/parallel.h). Rows
        // are independent, so each out[i] is written by the same math
        // whatever the partition.
        const auto rows = [&](std::int64_t begin, std::int64_t end) {
          objective.batch_fn(s.p.data() + begin * d,
                             static_cast<int>(end - begin), d,
                             s.perror.data() + begin);
        };
        if (use_omp && elements >= kOmpMinElements) {
          vgpu::parallel_for(n, /*grain=*/1, rows);
        } else {
          rows(0, n);
        }
      } else {
#pragma omp parallel for schedule(static) \
    if (use_omp && elements >= kOmpMinElements)
        for (int i = 0; i < n; ++i) {
          s.perror[i] =
              static_cast<float>(objective.fn(s.p.data() + i * d, d));
        }
      }
      account("eval", "eval/objective",
              cpu.region_seconds(
                  model_threads, objective.cost.flops(d) * n,
                  objective.cost.transcendentals(d) * n,
                  static_cast<double>(elements + n) * sizeof(float)));
    }

    // ---- Step (iii): pbest + gbest ---------------------------------------
    std::size_t improved = 0;
    {
      ScopedTimer timer(wall, "pbest");
#pragma omp parallel for schedule(static) reduction(+ : improved) \
    if (use_omp && elements >= kOmpMinElements)
      for (int i = 0; i < n; ++i) {
        if (s.perror[i] < s.pbest_err[i]) {
          s.pbest_err[i] = s.perror[i];
          std::copy(s.p.begin() + static_cast<std::ptrdiff_t>(i) * d,
                    s.p.begin() + static_cast<std::ptrdiff_t>(i + 1) * d,
                    s.pbest_pos.begin() + static_cast<std::ptrdiff_t>(i) * d);
          ++improved;
        }
      }
      account("pbest", "pbest/update",
              cpu.region_seconds(
                  model_threads, static_cast<double>(n), 0,
                  (2.0 * n + 2.0 * static_cast<double>(improved) * d) *
                      sizeof(float)));
    }
    {
      ScopedTimer timer(wall, "gbest");
      int best_i = -1;
      float best = s.gbest;
      for (int i = 0; i < n; ++i) {
        if (s.pbest_err[i] < best) {
          best = s.pbest_err[i];
          best_i = i;
        }
      }
      if (best_i >= 0) {
        s.gbest = best;
        std::copy(
            s.pbest_pos.begin() + static_cast<std::ptrdiff_t>(best_i) * d,
            s.pbest_pos.begin() + static_cast<std::ptrdiff_t>(best_i + 1) * d,
            s.gbest_pos.begin());
      }
      account("gbest", "gbest/scan",
              cpu.region_seconds(1, static_cast<double>(n), 0,
                                 static_cast<double>(n) * sizeof(float)));
      gbest_history.push_back(s.gbest);
    }

    // ---- Step (iv): swarm update ------------------------------------------
    {
      ScopedTimer timer(wall, "swarm");
      const core::UpdateCoefficients it_coeff =
          core::coefficients_for_iter(coeff, params, iter);
#pragma omp parallel for schedule(static) \
    if (use_omp && elements >= kOmpMinElements)
      for (std::size_t i = 0; i < elements; ++i) {
        const int col = static_cast<int>(i % d);
        float nv = it_coeff.omega * s.v[i] +
                   it_coeff.c1 * s.l[i] * (s.pbest_pos[i] - s.p[i]) +
                   it_coeff.c2 * s.g[i] * (s.gbest_pos[col] - s.p[i]);
        if (it_coeff.vmax > 0.0f) {
          nv = std::clamp(nv, -it_coeff.vmax, it_coeff.vmax);
        }
        s.v[i] = nv;
        float np = s.p[i] + nv;
        if (coeff.clamp_position) {
          np = std::clamp(np, coeff.pos_lower, coeff.pos_upper);
        }
        s.p[i] = np;
      }
      account("swarm", "swarm/update",
              cpu.region_seconds(
                  model_threads,
                  kUpdateFlopsPerElement * static_cast<double>(elements), 0,
                  7.0 * static_cast<double>(elements) * sizeof(float)));
    }
  }

  core::Result result;
  result.gbest_value = s.gbest;
  result.gbest_position = s.gbest_pos;
  result.gbest_history = std::move(gbest_history);
  result.iterations = params.max_iter;
  result.wall_seconds = total_watch.elapsed_s();
  result.wall_breakdown = wall;
  result.modeled_breakdown = modeled;
  result.modeled_seconds = modeled.total();
  result.profile = std::move(profile);
  return result;
}

}  // namespace

core::Result run_fastpso_seq(const core::Objective& objective,
                             const core::PsoParams& params) {
  return run_fastpso_cpu(objective, params, /*use_omp=*/false);
}

core::Result run_fastpso_omp(const core::Objective& objective,
                             const core::PsoParams& params) {
  return run_fastpso_cpu(objective, params, /*use_omp=*/true);
}

}  // namespace fastpso::baselines
