// Ablation: GPU resource-aware thread creation (paper Eq. 3 /
// Section 3.3-3.4).
//
// Sweeps the thread cap of the swarm-update launch from "far too few
// threads" (per-particle-scale) through the resource-aware value to
// "unbounded one-thread-per-element", and reports the modeled time of one
// full run at paper scale. Shows the mechanism behind FastPSO's design: too
// few threads starve occupancy; beyond device residency there is nothing
// left to gain (grid-stride folds the excess at no cost, while a real
// unbounded launch would pay block-scheduling overhead).
//
//   ./ablation_launch_policy [--executed-iters 10] [--tuned]
//
// --tuned appends a "tuned (autotuner)" row: the resource-aware policy
// re-measured with the offline autotuner's table installed (tune::Tuner
// over the engine families at this exact shape, DESIGN.md §13), so the
// ablation shows what the generalized search adds on top of Eq. 3. The
// default rows and CSV schema are unchanged by the flag.

#include "bench_common.h"
#include "core/init.h"
#include "core/launch_policy.h"
#include "core/optimizer.h"
#include "core/swarm_state.h"
#include "core/swarm_update.h"
#include "problems/problem.h"
#include "tune/kernels.h"
#include "tune/tuner.h"
#include "vgpu/device.h"
#include "vgpu/tuned.h"

using namespace fastpso;
using namespace fastpso::benchkit;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const BenchOptions opt = BenchOptions::parse(args, /*default_executed=*/10);
  const bool use_tuned = args.get_bool("tuned", false);
  const int n = opt.particles;
  const int d = opt.dim;

  const core::LaunchPolicy reference(vgpu::tesla_v100());
  const std::vector<std::pair<std::string, std::int64_t>> caps = {
      {"n threads (particle-level)", n},
      {"16k", 16384},
      {"64k", 65536},
      {"resource-aware (Eq. 3)", reference.thread_cap()},
      {"one per element", static_cast<std::int64_t>(n) * d},
  };

  TextTable table("Ablation: thread cap of the swarm-update launch "
                  "(sphere, n=" + std::to_string(n) + ", d=" +
                  std::to_string(d) + ")");
  table.set_header({"cap", "threads launched", "tw (Eq. 3)",
                    "swarm step modeled (s)"});
  CsvWriter csv({"cap", "threads", "tw", "swarm_s"});

  for (const auto& [label, cap] : caps) {
    vgpu::Device device;
    core::LaunchPolicy policy(device.spec(), 256, cap);
    core::SwarmState state(device, n, d);
    core::initialize_swarm(device, policy, state, opt.seed, -5.12f, 5.12f,
                           5.12f);
    vgpu::DeviceArray<float> l_mat(device, state.elements());
    vgpu::DeviceArray<float> g_mat(device, state.elements());
    core::generate_weights(device, policy, state.elements(), opt.seed, 0,
                           l_mat, g_mat);
    core::PsoParams params;
    const core::UpdateCoefficients coeff =
        core::make_coefficients(params, -5.12, 5.12);

    device.reset_counters();
    device.set_phase("swarm");
    for (int iter = 0; iter < opt.executed_iters; ++iter) {
      core::swarm_update(device, policy, state, l_mat, g_mat, coeff,
                         core::UpdateTechnique::kGlobalMemory);
    }
    const double per_iter = device.modeled_seconds() / opt.executed_iters;
    const double full = per_iter * opt.iters;
    const auto decision = policy.for_elements(state.elements());
    table.add_row({label, std::to_string(decision.config.total_threads()),
                   std::to_string(decision.thread_workload),
                   fmt_fixed(full, 3)});
    csv.add_row({label, std::to_string(decision.config.total_threads()),
                 std::to_string(decision.thread_workload),
                 fmt_fixed(full, 4)});
  }

  if (use_tuned) {
    // The autotuner searched at this exact shape, its table installed for
    // the measurement only (ScopedTuning restores the ambient state).
    const vgpu::GpuSpec gpu = vgpu::tesla_v100();
    const tune::Tuner tuner(gpu);
    const std::int64_t elements = static_cast<std::int64_t>(n) * d;
    const tune::TuneReport report =
        tuner.tune(tune::engine_families(gpu),
                   {{"launch_policy", elements, d, n},
                    {"swarm_tile", elements, d, n}});
    vgpu::tuned::ScopedTuning scope;
    report.table.install();
    vgpu::tuned::set_enabled(true);

    vgpu::Device device;
    core::LaunchPolicy policy(device.spec());
    core::SwarmState state(device, n, d);
    core::initialize_swarm(device, policy, state, opt.seed, -5.12f, 5.12f,
                           5.12f);
    vgpu::DeviceArray<float> l_mat(device, state.elements());
    vgpu::DeviceArray<float> g_mat(device, state.elements());
    core::generate_weights(device, policy, state.elements(), opt.seed, 0,
                           l_mat, g_mat);
    core::PsoParams params;
    const core::UpdateCoefficients coeff =
        core::make_coefficients(params, -5.12, 5.12);
    device.reset_counters();
    device.set_phase("swarm");
    for (int iter = 0; iter < opt.executed_iters; ++iter) {
      core::swarm_update(device, policy, state, l_mat, g_mat, coeff,
                         core::UpdateTechnique::kGlobalMemory);
    }
    const double full =
        device.modeled_seconds() / opt.executed_iters * opt.iters;
    const auto decision = policy.for_elements(state.elements());
    table.add_row({"tuned (autotuner)",
                   std::to_string(decision.config.total_threads()),
                   std::to_string(decision.thread_workload),
                   fmt_fixed(full, 3)});
    csv.add_row({"tuned (autotuner)",
                 std::to_string(decision.config.total_threads()),
                 std::to_string(decision.thread_workload),
                 fmt_fixed(full, 4)});
    table.add_note("tuned row: " + std::to_string(report.improved_groups()) +
                   " of " +
                   std::to_string(static_cast<int>(report.outcomes.size())) +
                   " groups improved at this shape; the candidate slate "
                   "always contains the default, so it can never regress");
  }

  table.add_note("the particle-level row is the granularity of the prior "
                 "GPU PSO implementations; the Eq. 3 row is FastPSO");
  table.print(std::cout);
  maybe_write_csv(csv, opt.csv);
  return 0;
}
