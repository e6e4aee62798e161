// Multi-GPU FastPSO (paper Section 3.5): runs both extension strategies —
// particle splitting with asynchronous global-best exchange, and tile-matrix
// sharding — across 1, 2 and 4 virtual devices and reports modeled time and
// solution quality.
//
//   ./multigpu_scaling [--problem rastrigin] [--particles 4000] [--dim 100]
//                      [--iters 200]

#include <iostream>

#include "common/cli.h"
#include "common/table.h"
#include "core/multi_device.h"
#include "core/optimizer.h"
#include "problems/problem.h"

using namespace fastpso;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string problem_name = args.get_string("problem", "rastrigin");
  const auto problem = problems::make_problem(problem_name);

  core::PsoParams pso;
  pso.particles = static_cast<int>(args.get_int("particles", 4000));
  pso.dim = static_cast<int>(args.get_int("dim", 100));
  pso.max_iter = static_cast<int>(args.get_int("iters", 200));
  const core::Objective objective =
      core::objective_from_problem(*problem, pso.dim);

  TextTable table("Multi-GPU scaling (" + problem_name + ", n=" +
                  std::to_string(pso.particles) + ", d=" +
                  std::to_string(pso.dim) + ")");
  table.set_header({"strategy", "devices", "modeled (s)", "gbest",
                    "per-device (s)"});

  for (auto strategy : {core::MultiGpuStrategy::kTileMatrix,
                        core::MultiGpuStrategy::kParticleSplit}) {
    for (int devices : {1, 2, 4}) {
      core::MultiDeviceParams params;
      params.pso = pso;
      params.devices = devices;
      params.strategy = strategy;
      core::MultiDeviceOptimizer optimizer(params);
      const core::Result result = optimizer.optimize(objective);

      std::string per_device;
      for (double s : optimizer.device_seconds()) {
        per_device += fmt_fixed(s, 3) + " ";
      }
      table.add_row({to_string(strategy), std::to_string(devices),
                     fmt_fixed(result.modeled_seconds, 3),
                     fmt_fixed(result.gbest_value, 4), per_device});
    }
  }
  table.add_note("tile-matrix shards one swarm (identical semantics); "
                 "particle-split runs local sub-swarms with periodic "
                 "global-best exchange");
  table.print(std::cout);
  return 0;
}
