// Table 5: execution time of MiniGBM (the ThunderGBM substitute) with and
// without FastPSO-tuned kernel configurations, on the four Table-5-shaped
// datasets (paper Section 4.6).
//
// Flow per dataset:
//   1. train MiniGBM (real histogram GBDT) with ThunderGBM-style default
//      kernel configs -> modeled time `tgbm`;
//   2. run FastPSO on the ThreadConf objective (modeled training time as a
//      function of the 50 configuration parameters);
//   3. retrain with the tuned configs -> modeled time `tgbm+pso`;
//   4. report both and the speedup; also checks the tuned run reaches the
//      same training RMSE (the tuning changes launch shapes, not results).
//
//   ./table5_threadconf [--trees 12] [--tune-particles 512]
//                       [--tune-iters 60] [--tuned]
//
// --tuned adds one "<dataset>+tuner" row per dataset: the configuration
// found by the offline autotuner (tune::Tuner over the per-site kernel
// families, DESIGN.md §13) instead of the paper's direct 50-dim ThreadConf
// search — per-site subspace search with validity predicates and
// executed-probe validation. Default rows are byte-identical with or
// without the flag.

#include "bench_common.h"
#include "tgbm/minigbm.h"
#include "tgbm/threadconf.h"
#include "tune/kernels.h"
#include "tune/tuner.h"
#include "vgpu/device.h"
#include "vgpu/device_spec.h"

using namespace fastpso;
using namespace fastpso::benchkit;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  tgbm::GbmParams gbm;
  gbm.trees = static_cast<int>(args.get_int("trees", 12));
  const int tune_particles =
      static_cast<int>(args.get_int("tune-particles", 512));
  const int tune_iters = static_cast<int>(args.get_int("tune-iters", 60));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const std::string csv_path = args.get_string("csv", "");
  const bool use_tuned = args.get_bool("tuned", false);
  tune::TunerOptions tuner_options;
  tuner_options.particles =
      static_cast<int>(args.get_int("tuner-particles", 48));
  tuner_options.iterations = static_cast<int>(args.get_int("tuner-iters", 24));
  tuner_options.seed = seed;

  TextTable table("Table 5: MiniGBM training time w/ and w/o FastPSO tuning");
  table.set_header({"data set", "#card", "#dim", "tgbm (s)", "tgbm+pso (s)",
                    "speedup", "rmse", "rmse+pso"});
  CsvWriter csv({"dataset", "rows", "dims", "default_s", "tuned_s", "speedup",
                 "rmse_default", "rmse_tuned"});

  for (const auto& spec : tgbm::table5_specs()) {
    const tgbm::Dataset data = tgbm::generate_dataset(spec, seed);
    const tgbm::MiniGbm trainer(gbm);

    // 1. default configs
    vgpu::Device device_default;
    const tgbm::TrainResult base =
        trainer.train(device_default, data, tgbm::default_configs());

    // 2. FastPSO tunes the modeled training time (the paper's direct 50-dim
    // ThreadConf search, expressed through the tuner layer — same optimize
    // call, byte-identical results).
    tgbm::ThreadConfProblem problem(spec, gbm);
    const tune::ThreadConfSearch search =
        tune::search_threadconf(problem, tune_particles, tune_iters, seed);
    const tgbm::ConfigSet& tuned = search.configs;

    // 3. retrain with tuned configs
    vgpu::Device device_tuned;
    const tgbm::TrainResult best = trainer.train(device_tuned, data, tuned);

    const double speedup = base.modeled_seconds / best.modeled_seconds;
    table.add_row({spec.name, std::to_string(spec.rows),
                   std::to_string(spec.dims),
                   fmt_fixed(base.modeled_seconds, 2),
                   fmt_fixed(best.modeled_seconds, 2), fmt_fixed(speedup, 2),
                   fmt_fixed(base.final_rmse(), 4),
                   fmt_fixed(best.final_rmse(), 4)});
    csv.add_row({spec.name, std::to_string(spec.rows),
                 std::to_string(spec.dims),
                 fmt_fixed(base.modeled_seconds, 3),
                 fmt_fixed(best.modeled_seconds, 3), fmt_fixed(speedup, 3),
                 fmt_fixed(base.final_rmse(), 5),
                 fmt_fixed(best.final_rmse(), 5)});

    if (use_tuned) {
      // 4. the autotuner: per-site subspace search over the 25 kernel-site
      // families, then retrain under the configs its table pins.
      const tune::Tuner tuner(vgpu::tesla_v100(), tuner_options);
      const tune::TuneReport report =
          tuner.tune(tune::tgbm_site_families(spec, gbm, vgpu::tesla_v100()),
                     tune::tgbm_site_shapes(spec, gbm));
      const tgbm::ConfigSet site_tuned =
          tune::site_configs(spec, gbm, report.table.store());
      vgpu::Device device_site;
      const tgbm::TrainResult site =
          trainer.train(device_site, data, site_tuned);
      const double site_speedup =
          base.modeled_seconds / site.modeled_seconds;
      const std::string name = std::string(spec.name) + "+tuner";
      table.add_row({name, std::to_string(spec.rows),
                     std::to_string(spec.dims),
                     fmt_fixed(base.modeled_seconds, 2),
                     fmt_fixed(site.modeled_seconds, 2),
                     fmt_fixed(site_speedup, 2),
                     fmt_fixed(base.final_rmse(), 4),
                     fmt_fixed(site.final_rmse(), 4)});
      csv.add_row({name, std::to_string(spec.rows),
                   std::to_string(spec.dims),
                   fmt_fixed(base.modeled_seconds, 3),
                   fmt_fixed(site.modeled_seconds, 3),
                   fmt_fixed(site_speedup, 3),
                   fmt_fixed(base.final_rmse(), 5),
                   fmt_fixed(site.final_rmse(), 5)});
      table.add_note(name + ": " + std::to_string(report.improved_groups()) +
                     " of " +
                     std::to_string(static_cast<int>(
                         report.outcomes.size())) +
                     " site groups improved in modeled time");
    }
  }

  table.add_note("trees=" + std::to_string(gbm.trees) +
                 " depth=" + std::to_string(gbm.depth) +
                 " (paper: 40 trees; pass --trees 40 for paper scale)");
  table.add_note("paper speedups: covtype 0.96x, susy 1.19x, higgs 1.04x, "
                 "e2006 1.25x");
  table.print(std::cout);
  maybe_write_csv(csv, csv_path);
  return 0;
}
