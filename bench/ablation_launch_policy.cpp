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
//   ./ablation_launch_policy [--executed-iters 10]

#include "bench_common.h"
#include "core/init.h"
#include "core/launch_policy.h"
#include "core/optimizer.h"
#include "core/swarm_state.h"
#include "core/swarm_update.h"
#include "problems/problem.h"
#include "vgpu/device.h"

using namespace fastpso;
using namespace fastpso::benchkit;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const BenchOptions opt = BenchOptions::parse(args, /*default_executed=*/10);
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

  table.add_note("the particle-level row is the granularity of the prior "
                 "GPU PSO implementations; the Eq. 3 row is FastPSO");
  table.print(std::cout);
  maybe_write_csv(csv, opt.csv);
  return 0;
}
