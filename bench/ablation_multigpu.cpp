// Ablation: multi-GPU scaling (paper Section 3.5). Sweeps the device count
// under both strategies on the comm stack (DeviceGroup + modeled
// collectives, core/multi_device.h) and reports modeled elapsed time and
// solution quality. Tile-matrix results equal the single-device run for
// every device count (pinned by tests/test_multi_gpu.cpp), so its error
// column is constant and only the modeled time moves.
//
//   ./ablation_multigpu [--particles 4000] [--dim 100] [--iters 100]

#include "bench_common.h"
#include "core/multi_device.h"
#include "core/optimizer.h"
#include "problems/problem.h"

using namespace fastpso;
using namespace fastpso::benchkit;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  core::PsoParams pso;
  pso.particles = static_cast<int>(args.get_int("particles", 4000));
  pso.dim = static_cast<int>(args.get_int("dim", 100));
  pso.max_iter = static_cast<int>(args.get_int("iters", 100));
  pso.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const std::string csv_path = args.get_string("csv", "");

  const auto problem = problems::make_problem("rastrigin");
  const core::Objective objective =
      core::objective_from_problem(*problem, pso.dim);

  TextTable table("Ablation: multi-GPU scaling (rastrigin, n=" +
                  std::to_string(pso.particles) + ", d=" +
                  std::to_string(pso.dim) + ", " +
                  std::to_string(pso.max_iter) + " iters)");
  table.set_header({"strategy", "devices", "modeled (s)", "scaling vs 1 GPU",
                    "final error"});
  CsvWriter csv({"strategy", "devices", "modeled_s", "speedup", "error"});

  for (auto strategy : {core::MultiGpuStrategy::kTileMatrix,
                        core::MultiGpuStrategy::kParticleSplit}) {
    double single = 0;
    for (int devices : {1, 2, 4, 8, 16}) {
      core::MultiDeviceParams params;
      params.pso = pso;
      params.devices = devices;
      params.strategy = strategy;
      core::MultiDeviceOptimizer optimizer(params);
      const core::Result result = optimizer.optimize(objective);
      const double error = result.error_to(objective.optimum);
      if (devices == 1) {
        single = result.modeled_seconds;
      }
      const double speedup = single / result.modeled_seconds;
      table.add_row({to_string(strategy), std::to_string(devices),
                     fmt_fixed(result.modeled_seconds, 4),
                     fmt_speedup(speedup), fmt_fixed(error, 3)});
      csv.add_row({to_string(strategy), std::to_string(devices),
                   fmt_fixed(result.modeled_seconds, 5),
                   fmt_fixed(speedup, 3), fmt_fixed(error, 4)});
    }
  }
  table.add_note("scaling is sublinear: per-device work shrinks while the "
                 "collectives and fixed kernel overheads do not — and a "
                 "swarm this size already under-fills one V100. Tile-matrix "
                 "pays a ring allreduce + broadcast every iteration, "
                 "particle-split only every sync_interval iterations, so "
                 "particle-split pulls ahead as devices are added");
  table.print(std::cout);
  maybe_write_csv(csv, csv_path);
  return 0;
}
