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
//   ./ablation_launch_policy [--executed-iters 10] [--graph] [--fuse]
//                            [--tuned]
//
// --tuned appends a "tuned (autotuner)" row: the resource-aware policy
// re-measured with the offline autotuner's table installed (tune::Tuner
// over the engine families at this exact shape, DESIGN.md §13), so the
// ablation shows what the generalized search adds on top of Eq. 3. The
// default rows and CSV schema are unchanged; with --graph/--fuse the extra
// row reports "-" in the graph/fused columns (it measures the eager path).
//
// --graph repeats each cap's iteration loop under vgpu::Graph
// capture/replay (DESIGN.md §8) and appends a graph-mode modeled column.
// The swarm step is a single kernel, so its one-node graph faithfully
// reports a *negative* amortization (one graph launch costs more than one
// kernel launch saves) — graphs pay off for the multi-kernel pipeline, not
// here. --fuse adds a "+fusion" row per cap with the FusionPass engaged
// (DESIGN.md §9) and a fused-modeled column; a one-kernel loop has no run
// to fuse (groups = 0), so the column honestly matches the graph number —
// the fusion win lives in the multi-kernel pipeline (tests/test_fusion.cpp).
// Eager columns and the default CSV schema are unchanged either way.

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
#include "vgpu/graph/graph.h"
#include "vgpu/tuned.h"

using namespace fastpso;
using namespace fastpso::benchkit;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const BenchOptions opt = BenchOptions::parse(args, /*default_executed=*/10);
  const bool use_graph = args.get_bool("graph", false);
  const bool use_fuse = args.get_bool("fuse", false);
  const bool use_tuned = args.get_bool("tuned", false);
  if (use_graph) {
    vgpu::graph::set_enabled(true);
  }
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
  std::vector<std::string> header = {"cap", "threads launched", "tw (Eq. 3)",
                                     "swarm step modeled (s)"};
  std::vector<std::string> csv_header = {"cap", "threads", "tw", "swarm_s"};
  if (use_graph) {
    header.push_back("graph modeled (s)");
    csv_header.push_back("graph_swarm_s");
  }
  if (use_fuse) {
    header.push_back("fused modeled (s)");
    csv_header.push_back("fused_swarm_s");
  }
  table.set_header(header);
  CsvWriter csv(csv_header);

  for (const auto& [label, cap] : caps) {
    // With --fuse each cap runs twice: the plain pass and a "+fusion" pass
    // with the FusionPass engaged (fusion implies capture, so the second
    // pass records even without --graph).
    for (const bool fuse : use_fuse ? std::vector<bool>{false, true}
                                    : std::vector<bool>{false}) {
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
      vgpu::graph::IterationRecorder recorder(device, use_graph || fuse,
                                              fuse);
      for (int iter = 0; iter < opt.executed_iters; ++iter) {
        recorder.begin_iteration();
        core::swarm_update(device, policy, state, l_mat, g_mat, coeff,
                           core::UpdateTechnique::kGlobalMemory);
        recorder.end_iteration();
      }
      const double per_iter =
          device.modeled_seconds() / opt.executed_iters;
      const double full = per_iter * opt.iters;
      const auto decision = policy.for_elements(state.elements());
      const std::string row_label = fuse ? label + " +fusion" : label;
      std::vector<std::string> row = {
          row_label, std::to_string(decision.config.total_threads()),
          std::to_string(decision.thread_workload), fmt_fixed(full, 3)};
      std::vector<std::string> csv_row = {
          row_label, std::to_string(decision.config.total_threads()),
          std::to_string(decision.thread_workload), fmt_fixed(full, 4)};
      if (use_graph) {
        const vgpu::graph::GraphStats g = recorder.stats();
        const double graph_per_iter =
            (device.modeled_seconds() - g.modeled_seconds_saved) /
            opt.executed_iters;
        row.push_back(fmt_fixed(graph_per_iter * opt.iters, 3));
        csv_row.push_back(fmt_fixed(graph_per_iter * opt.iters, 4));
      }
      if (use_fuse) {
        if (fuse) {
          const vgpu::graph::GraphStats g = recorder.stats();
          const vgpu::graph::FusionStats f = recorder.fusion_stats();
          const double fused_per_iter =
              (device.modeled_seconds() - g.modeled_seconds_saved -
               f.modeled_seconds_saved) /
              opt.executed_iters;
          row.push_back(fmt_fixed(fused_per_iter * opt.iters, 3));
          csv_row.push_back(fmt_fixed(fused_per_iter * opt.iters, 4));
        } else {
          row.push_back("-");
          csv_row.push_back("-");
        }
      }
      table.add_row(row);
      csv.add_row(csv_row);
    }
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
    std::vector<std::string> row = {
        "tuned (autotuner)", std::to_string(decision.config.total_threads()),
        std::to_string(decision.thread_workload), fmt_fixed(full, 3)};
    std::vector<std::string> csv_row = {
        "tuned (autotuner)", std::to_string(decision.config.total_threads()),
        std::to_string(decision.thread_workload), fmt_fixed(full, 4)};
    if (use_graph) {
      row.emplace_back("-");
      csv_row.emplace_back("-");
    }
    if (use_fuse) {
      row.emplace_back("-");
      csv_row.emplace_back("-");
    }
    table.add_row(row);
    csv.add_row(csv_row);
    table.add_note("tuned row: " + std::to_string(report.improved_groups()) +
                   " of " +
                   std::to_string(static_cast<int>(report.outcomes.size())) +
                   " groups improved at this shape; the candidate slate "
                   "always contains the default, so it can never regress");
  }

  table.add_note("the particle-level row is the granularity of the prior "
                 "GPU PSO implementations; the Eq. 3 row is FastPSO");
  if (use_graph) {
    table.add_note("graph column: one-node graph per iteration; a single "
                   "kernel cannot amortize the graph launch, so graph "
                   "modeled >= eager here (cf. tests/test_graph.cpp)");
  }
  if (use_fuse) {
    table.add_note("+fusion rows: a one-kernel iteration has no run to "
                   "fuse (groups=0), so fused modeled = graph modeled — "
                   "fusion pays off in the multi-kernel pipeline "
                   "(tests/test_fusion.cpp)");
  }
  table.print(std::cout);
  maybe_write_csv(csv, opt.csv);
  return 0;
}
