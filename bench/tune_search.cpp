// tune_search: the offline autotuner driver (DESIGN.md §13).
//
// Runs the tune::Tuner over the 25 MiniGBM kernel-site families of one
// Table 5 dataset, then reports predicted and executed costs per shape
// group and, with --csv PATH, writes the predicted-vs-executed record (one
// row per group).
//
// The search itself uses FastPSO (a small swarm per group over the family's
// JoinedSpace, modeled-cost oracle) and the winner is validated with an
// executed probe — the modeled time of a whole training run under the
// winning site configs — so every emitted entry is backed by the full
// training plan, never by the per-site mirror alone.
//
//   ./tune_search [--particles 48] [--iters 24] [--seed 42]
//                 [--tgbm-dataset covtype] [--no-probe]
//                 [--csv tune_search.csv] [--gate-groups N]
//
// --gate-groups N exits non-zero unless at least N groups improved on the
// default configuration in modeled time — the CI check that the tuner
// still finds real wins on the kernel sites.

#include <iostream>
#include <string>

#include "bench_common.h"
#include "tgbm/dataset.h"
#include "tgbm/kernels.h"
#include "tune/kernels.h"
#include "tune/tuner.h"
#include "vgpu/device_spec.h"

using namespace fastpso;
using namespace fastpso::benchkit;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  tune::TunerOptions options;
  options.particles = static_cast<int>(args.get_int("particles", 48));
  options.iterations = static_cast<int>(args.get_int("iters", 24));
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  options.executed_probe = !args.get_bool("no-probe", false);
  const std::string tgbm_dataset = args.get_string("tgbm-dataset", "covtype");
  const std::string csv_path = args.get_string("csv", "");
  const int gate_groups = static_cast<int>(args.get_int("gate-groups", 0));

  const vgpu::GpuSpec gpu = vgpu::tesla_v100();
  const tune::Tuner tuner(gpu, options);

  tgbm::DatasetSpec spec;
  bool found = false;
  for (const tgbm::DatasetSpec& candidate : tgbm::table5_specs()) {
    if (candidate.name == tgbm_dataset) {
      spec = candidate;
      found = true;
      break;
    }
  }
  if (!found) {
    std::cerr << "tune_search: unknown --tgbm-dataset " << tgbm_dataset
              << "\n";
    return 1;
  }
  const tgbm::GbmParams params;
  const tune::TuneReport report =
      tuner.tune(tune::tgbm_site_families(spec, params, gpu),
                 tune::tgbm_site_shapes(spec, params));

  TextTable table("tune_search: modeled-cost autotuner (" +
                  std::to_string(options.particles) + " particles x " +
                  std::to_string(options.iterations) + " iters per group)");
  table.set_header({"group", "tuned point", "default us", "tuned us",
                    "speedup", "exec default us", "exec tuned us"});
  for (const tune::GroupOutcome& outcome : report.outcomes) {
    const double speedup =
        outcome.tuned_us > 0 ? outcome.default_us / outcome.tuned_us : 1.0;
    table.add_row({outcome.key, outcome.point_string,
                   fmt_fixed(outcome.default_us, 3),
                   fmt_fixed(outcome.tuned_us, 3), fmt_speedup(speedup),
                   fmt_fixed(outcome.executed_default_us, 3),
                   fmt_fixed(outcome.executed_tuned_us, 3)});
  }
  table.add_note("default point is always in the candidate slate: tuned "
                 "modeled cost can never exceed the default's");
  table.add_note(std::to_string(report.improved_groups()) + " of " +
                 std::to_string(static_cast<int>(report.outcomes.size())) +
                 " groups improved; " +
                 std::to_string(static_cast<int>(
                     report.table.store().size())) +
                 " store entries emitted");
  table.print(std::cout);

  if (!csv_path.empty()) {
    std::cout << (report.table.save_csv(csv_path) ? "csv written: "
                                                  : "csv write FAILED: ")
              << csv_path << "\n";
  }

  if (gate_groups > 0 && report.improved_groups() < gate_groups) {
    std::cerr << "tune_search: gate FAILED — " << report.improved_groups()
              << " improved groups, need >= " << gate_groups << "\n";
    return 1;
  }
  return 0;
}
