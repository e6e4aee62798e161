// serve_load: throughput/latency benchmark of the PSO-as-a-service
// scheduler (src/serve/) under a seeded open-loop workload of mixed job
// shapes — the serving analogue of the table benches.
//
// Reports graph-cache hit rate, batched launch reduction, modeled makespan
// vs serial seconds, and p50/p99 modeled job latency. All modeled numbers
// are deterministic for a given (jobs, seed, policy, streams, max-active)
// configuration; --smoke pins them for the golden CSV regression and gates
// them (hit rate > 90%, batched launch reduction > 30% on a mixed 200-job
// workload).
//
//   ./serve_load [--jobs 1000] [--policy fifo|priority|fair]
//                [--streams 4] [--max-active 32] [--seed 42]
//                [--no-graphs] [--no-batching] [--tiny]
//                [--csv out.csv] [--json BENCH_serve.json]
//                [--trace serve_trace.json]
//                [--smoke]   (fixed 200-job config + acceptance gates)
//                [--pack]    (executed-packing comparison: the tiny-job
//                             workload runs unpacked AND packed, reporting
//                             real launch counts and jobs/s on both the
//                             modeled timeline and the host wall clock;
//                             with --smoke, gates packed >= 1.3x unpacked
//                             jobs/s and >= 30% real-launch reduction)

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "common/trace_export.h"
#include "serve/scheduler.h"
#include "vgpu/device.h"

using namespace fastpso;
using namespace fastpso::benchkit;
using namespace fastpso::serve;

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D49B129649CA1Dull;
  return z ^ (z >> 31);
}

struct ShapeRow {
  const char* problem;
  int particles;
  int dim;
  core::UpdateTechnique technique;
  core::Topology topology;
};

/// The tiny-job table: the cross-job packing workload (--tiny, and the
/// --pack smoke gate). Swarms of 8-16 particles in 2-8 dims — shapes where
/// per-iteration fixed costs dwarf the kernel bodies, i.e. exactly the
/// regime the Warp-Level Parallelism packing scheme targets. One ring
/// shape keeps the neighborhood kernels in the packed differential.
constexpr ShapeRow kTinyShapes[] = {
    {"sphere", 8, 2, core::UpdateTechnique::kGlobalMemory,
     core::Topology::kGlobal},
    {"rastrigin", 8, 4, core::UpdateTechnique::kGlobalMemory,
     core::Topology::kGlobal},
    {"rosenbrock", 16, 2, core::UpdateTechnique::kGlobalMemory,
     core::Topology::kGlobal},
    {"zakharov", 16, 4, core::UpdateTechnique::kGlobalMemory,
     core::Topology::kGlobal},
    {"ackley", 16, 2, core::UpdateTechnique::kGlobalMemory,
     core::Topology::kRing},
    {"schwefel", 8, 8, core::UpdateTechnique::kGlobalMemory,
     core::Topology::kGlobal},
};

/// The mixed workload: jobs drawn from a fixed 8-shape table (varied
/// problems, swarm sizes, dims; one ring topology, one shared-memory
/// shape), with seeded budgets, priorities, tenants, and an open-loop
/// arrival ramp. Deterministic for a given (count, seed).
std::vector<JobSpec> build_workload(int count, std::uint64_t seed,
                                    bool tiny) {
  static constexpr ShapeRow kShapes[] = {
      {"sphere", 64, 16, core::UpdateTechnique::kGlobalMemory,
       core::Topology::kGlobal},
      {"rastrigin", 32, 8, core::UpdateTechnique::kGlobalMemory,
       core::Topology::kGlobal},
      {"rosenbrock", 64, 8, core::UpdateTechnique::kGlobalMemory,
       core::Topology::kGlobal},
      {"ackley", 32, 8, core::UpdateTechnique::kGlobalMemory,
       core::Topology::kRing},
      {"griewank", 64, 16, core::UpdateTechnique::kSharedMemory,
       core::Topology::kGlobal},
      {"zakharov", 16, 4, core::UpdateTechnique::kGlobalMemory,
       core::Topology::kGlobal},
      {"levy", 32, 4, core::UpdateTechnique::kGlobalMemory,
       core::Topology::kGlobal},
      {"schwefel", 16, 8, core::UpdateTechnique::kGlobalMemory,
       core::Topology::kGlobal},
  };
  std::vector<JobSpec> specs;
  specs.reserve(static_cast<std::size_t>(count));
  std::uint64_t state = seed;
  for (int i = 0; i < count; ++i) {
    const ShapeRow& row =
        tiny ? kTinyShapes[splitmix64(state) % std::size(kTinyShapes)]
             : kShapes[splitmix64(state) % std::size(kShapes)];
    JobSpec spec;
    spec.problem = row.problem;
    spec.params.particles = row.particles;
    spec.params.dim = row.dim;
    spec.params.technique = row.technique;
    spec.params.topology = row.topology;
    spec.params.max_iter = 5 + static_cast<int>(splitmix64(state) % 20);
    spec.params.seed = splitmix64(state);
    spec.priority = static_cast<int>(splitmix64(state) % 3);
    spec.tenant = static_cast<int>(splitmix64(state) % 4);
    spec.arrival_seconds = static_cast<double>(i) * 2e-6;
    specs.push_back(spec);
  }
  return specs;
}

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  std::sort(sorted.begin(), sorted.end());
  const auto index = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

/// One serve run for the --pack comparison: same workload, pack toggled.
struct PackRun {
  ServeStats stats;
  double wall_s = 0;
  /// Jobs per second on the deterministic modeled timeline (the gated
  /// number — wall-clock jobs/s is reported alongside but machine-bound).
  [[nodiscard]] double jobs_per_modeled_s() const {
    return stats.makespan_seconds > 0
               ? static_cast<double>(stats.jobs_completed) /
                     stats.makespan_seconds
               : 0.0;
  }
  [[nodiscard]] double jobs_per_wall_s() const {
    return wall_s > 0
               ? static_cast<double>(stats.jobs_completed) / wall_s
               : 0.0;
  }
};

PackRun run_workload(const std::vector<JobSpec>& specs,
                     const SchedulerOptions& options) {
  PackRun run;
  Stopwatch wall;
  vgpu::Device device;
  Scheduler scheduler(device, options);
  for (const JobSpec& spec : specs) {
    scheduler.submit(spec);
  }
  scheduler.run();
  run.wall_s = wall.elapsed_s();
  run.stats = scheduler.stats();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const bool smoke = args.get_bool("smoke", false);

  SchedulerOptions options;
  options.policy = policy_from_string(args.get_string("policy", "fifo"));
  options.streams = static_cast<int>(args.get_int("streams", 4));
  options.max_active = static_cast<int>(args.get_int("max-active", 32));
  options.use_graphs = !args.get_bool("no-graphs", false);
  options.batching = !args.get_bool("no-batching", false);
  // options.pack already defaulted from FASTPSO_SERVE_PACK; --smoke pins
  // it off below so the golden CSV is env-stable. --pack runs the
  // executed-packing comparison on top of the primary run.
  const bool pack_mode = args.get_bool("pack", false);
  int jobs = static_cast<int>(args.get_int("jobs", 1000));
  std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  bool tiny = args.get_bool("tiny", false);
  if (smoke) {
    // The ISSUE acceptance workload: mixed 200-job load, fixed seed.
    jobs = 200;
    seed = 42;
    options.policy = Policy::kFifo;
    options.streams = 4;
    options.max_active = 32;
    options.use_graphs = true;
    options.batching = true;
    options.pack = false;  // env-stable golden; --pack compares below
  }

  const auto specs = build_workload(jobs, seed, tiny);

  Stopwatch wall;
  vgpu::Device device;
  Scheduler scheduler(device, options);
  for (const JobSpec& spec : specs) {
    scheduler.submit(spec);
  }
  scheduler.run();
  const double wall_s = wall.elapsed_s();

  const ServeStats stats = scheduler.stats();
  std::vector<double> latencies;
  latencies.reserve(scheduler.outcomes().size());
  for (const JobOutcome& out : scheduler.outcomes()) {
    latencies.push_back(out.latency_seconds());
  }
  const double p50 = percentile(latencies, 0.50);
  const double p99 = percentile(latencies, 0.99);

  TextTable table("serve_load: PSO-as-a-service over one vgpu device");
  table.set_header({"metric", "value"});
  table.add_row({"jobs", std::to_string(jobs)});
  table.add_row({"policy", to_string(options.policy)});
  table.add_row({"streams", std::to_string(options.streams)});
  table.add_row({"max active", std::to_string(options.max_active)});
  table.add_row({"iterations", std::to_string(stats.iterations)});
  table.add_row({"graph-cache hit rate",
                 fmt_fixed(stats.hit_rate() * 100.0, 1) + "%"});
  table.add_row({"graphs captured / poisoned",
                 std::to_string(stats.graphs_captured) + " / " +
                     std::to_string(stats.graphs_poisoned)});
  table.add_row({"launches issued", std::to_string(stats.launches_issued)});
  table.add_row({"launches after batching",
                 std::to_string(stats.launches_batched)});
  table.add_row({"batched launch reduction",
                 fmt_fixed(stats.batch_launch_reduction() * 100.0, 1) +
                     "%"});
  table.add_row({"launches real (executed)",
                 std::to_string(stats.launches_real)});
  table.add_row({"real launch reduction",
                 fmt_fixed(stats.real_launch_reduction() * 100.0, 1) + "%"});
  table.add_row({"modeled makespan (s)",
                 fmt_fixed(stats.makespan_seconds, 6)});
  table.add_row({"modeled serial (s)", fmt_fixed(stats.serial_seconds, 6)});
  table.add_row({"graph credit saved (s)",
                 fmt_fixed(stats.graph_modeled_seconds_saved, 6)});
  table.add_row({"batch credit saved (s)",
                 fmt_fixed(stats.batch_modeled_seconds_saved, 6)});
  table.add_row({"serial if batched (s)",
                 fmt_fixed(stats.batched_modeled_seconds(), 6)});
  table.add_row({"serial if graphed (s)",
                 fmt_fixed(stats.graph_modeled_seconds(), 6)});
  table.add_row({"p50 modeled latency (s)", fmt_fixed(p50, 6)});
  table.add_row({"p99 modeled latency (s)", fmt_fixed(p99, 6)});
  table.add_row({"wall (s)", fmt_fixed(wall_s, 3)});
  table.add_note("credits are reported-only, never folded into any job's "
                 "numbers; jobs stay bitwise equal to solo runs (see "
                 "tests/test_serve.cpp)");
  table.print(std::cout);

  // --pack: executed-packing comparison. The tiny-job workload (the regime
  // packing targets) runs twice — unpacked and packed — on fresh devices;
  // jobs/s on the modeled timeline is the deterministic, gated number, and
  // wall-clock jobs/s rides along for the host-overhead view.
  PackRun unpacked, packed;
  int pack_jobs = 0;
  if (pack_mode) {
    pack_jobs = smoke ? 800 : jobs;
    const int pack_active = smoke ? 128 : options.max_active;
    const std::uint64_t pack_seed = smoke ? 42 : seed;
    const auto pack_specs = build_workload(pack_jobs, pack_seed,
                                           /*tiny=*/true);
    SchedulerOptions pack_options = options;
    if (smoke) {
      pack_options.policy = Policy::kFifo;
      pack_options.streams = 4;
    }
    pack_options.max_active = pack_active;
    pack_options.use_graphs = true;
    pack_options.batching = true;
    pack_options.pack = false;
    unpacked = run_workload(pack_specs, pack_options);
    pack_options.pack = true;
    packed = run_workload(pack_specs, pack_options);

    TextTable pt("serve_load --pack: executed cross-job packing vs "
                 "unpacked (tiny-job workload)");
    pt.set_header({"metric", "unpacked", "packed"});
    pt.add_row({"jobs", std::to_string(pack_jobs),
                std::to_string(pack_jobs)});
    pt.add_row({"launches issued",
                std::to_string(unpacked.stats.launches_issued),
                std::to_string(packed.stats.launches_issued)});
    pt.add_row({"launches real (executed)",
                std::to_string(unpacked.stats.launches_real),
                std::to_string(packed.stats.launches_real)});
    pt.add_row({"real launch reduction",
                fmt_fixed(unpacked.stats.real_launch_reduction() * 100.0, 1)
                    + "%",
                fmt_fixed(packed.stats.real_launch_reduction() * 100.0, 1) +
                    "%"});
    pt.add_row({"packed dispatches", "0",
                std::to_string(packed.stats.packed_dispatches)});
    pt.add_row({"warp-per-job dispatches", "0",
                std::to_string(packed.stats.packed_warp_dispatches)});
    pt.add_row({"modeled makespan (s)",
                fmt_fixed(unpacked.stats.makespan_seconds, 6),
                fmt_fixed(packed.stats.makespan_seconds, 6)});
    pt.add_row({"jobs/s (modeled)",
                fmt_fixed(unpacked.jobs_per_modeled_s(), 1),
                fmt_fixed(packed.jobs_per_modeled_s(), 1)});
    pt.add_row({"jobs/s (wall)", fmt_fixed(unpacked.jobs_per_wall_s(), 1),
                fmt_fixed(packed.jobs_per_wall_s(), 1)});
    pt.add_row({"batch credit saved (s)",
                fmt_fixed(unpacked.stats.batch_modeled_seconds_saved, 6) +
                    " (priced)",
                fmt_fixed(packed.stats.batch_modeled_seconds_saved, 6) +
                    " (executed)"});
    pt.add_note("packed speedup (modeled jobs/s): " +
                fmt_fixed(packed.jobs_per_modeled_s() /
                              std::max(unpacked.jobs_per_modeled_s(), 1e-12),
                          3) +
                "x — the executed credit lands on the shared timeline; "
                "per-job results stay bitwise-equal-to-solo");
    pt.print(std::cout);
  }

  CsvWriter csv({"jobs", "policy", "streams", "max_active", "iterations",
                 "cache_lookups", "cache_hits", "hit_rate",
                 "graphs_captured", "launches_issued", "launches_batched",
                 "batch_reduction", "batch_rounds", "launches_real",
                 "real_reduction", "makespan_s",
                 "serial_s", "graph_saved_s", "batch_saved_s",
                 "p50_latency_s", "p99_latency_s", "wall_s"});
  csv.add_row({std::to_string(jobs), to_string(options.policy),
               std::to_string(options.streams),
               std::to_string(options.max_active),
               std::to_string(stats.iterations),
               std::to_string(stats.cache_lookups),
               std::to_string(stats.cache_hits),
               fmt_fixed(stats.hit_rate(), 4),
               std::to_string(stats.graphs_captured),
               std::to_string(stats.launches_issued),
               std::to_string(stats.launches_batched),
               fmt_fixed(stats.batch_launch_reduction(), 4),
               std::to_string(stats.batch_rounds),
               std::to_string(stats.launches_real),
               fmt_fixed(stats.real_launch_reduction(), 4),
               fmt_fixed(stats.makespan_seconds, 6),
               fmt_fixed(stats.serial_seconds, 6),
               fmt_fixed(stats.graph_modeled_seconds_saved, 6),
               fmt_fixed(stats.batch_modeled_seconds_saved, 6),
               fmt_fixed(p50, 6), fmt_fixed(p99, 6),
               smoke ? "0.000" : fmt_fixed(wall_s, 3)});
  maybe_write_csv(csv, args.get_string("csv", ""));

  const std::string trace_path = args.get_string("trace", "");
  if (!trace_path.empty()) {
    if (write_chrome_trace(trace_path, scheduler.trace())) {
      std::cout << "trace written: " << trace_path << "\n";
    } else {
      std::cout << "trace write FAILED: " << trace_path << "\n";
    }
  }

  const std::string json_path = args.get_string("json", "");
  if (!json_path.empty()) {
    std::ostringstream json;
    json.setf(std::ios::fixed);
    json.precision(6);
    json << "{\n"
         << "  \"schema\": \"fastpso-bench-serve-v3\",\n"
         << "  \"jobs\": " << jobs << ",\n"
         << "  \"policy\": \"" << to_string(options.policy) << "\",\n"
         << "  \"streams\": " << options.streams << ",\n"
         << "  \"max_active\": " << options.max_active << ",\n"
         << "  \"iterations\": " << stats.iterations << ",\n"
         << "  \"cache_hit_rate\": " << stats.hit_rate() << ",\n"
         << "  \"graphs_captured\": " << stats.graphs_captured << ",\n"
         << "  \"graphs_poisoned\": " << stats.graphs_poisoned << ",\n"
         << "  \"launches_issued\": " << stats.launches_issued << ",\n"
         << "  \"launches_batched\": " << stats.launches_batched << ",\n"
         << "  \"batch_launch_reduction\": "
         << stats.batch_launch_reduction() << ",\n"
         << "  \"batch_rounds\": " << stats.batch_rounds << ",\n"
         << "  \"makespan_seconds\": " << stats.makespan_seconds << ",\n"
         << "  \"serial_seconds\": " << stats.serial_seconds << ",\n"
         << "  \"graph_modeled_seconds_saved\": "
         << stats.graph_modeled_seconds_saved << ",\n"
         << "  \"batch_modeled_seconds_saved\": "
         << stats.batch_modeled_seconds_saved << ",\n"
         << "  \"batched_modeled_seconds\": "
         << stats.batched_modeled_seconds() << ",\n"
         << "  \"graph_modeled_seconds\": " << stats.graph_modeled_seconds()
         << ",\n"
         << "  \"p50_latency_seconds\": " << p50 << ",\n"
         << "  \"p99_latency_seconds\": " << p99 << ",\n"
         << "  \"wall_seconds\": " << wall_s;
    if (pack_mode) {
      // Executed-packing comparison block (the --pack tiny-job workload).
      json << ",\n"
           << "  \"packed_jobs\": " << pack_jobs << ",\n"
           << "  \"unpacked_jobs_per_second\": "
           << unpacked.jobs_per_modeled_s() << ",\n"
           << "  \"packed_jobs_per_second\": "
           << packed.jobs_per_modeled_s() << ",\n"
           << "  \"packed_speedup\": "
           << packed.jobs_per_modeled_s() /
                  std::max(unpacked.jobs_per_modeled_s(), 1e-12)
           << ",\n"
           << "  \"packed_launches_issued\": "
           << packed.stats.launches_issued << ",\n"
           << "  \"packed_launches_real\": " << packed.stats.launches_real
           << ",\n"
           << "  \"packed_real_launch_reduction\": "
           << packed.stats.real_launch_reduction() << ",\n"
           << "  \"packed_dispatches\": " << packed.stats.packed_dispatches
           << ",\n"
           << "  \"packed_warp_dispatches\": "
           << packed.stats.packed_warp_dispatches << ",\n"
           << "  \"packed_executed_seconds_saved\": "
           << packed.stats.batch_modeled_seconds_saved << ",\n"
           << "  \"packed_wall_seconds\": " << packed.wall_s << ",\n"
           << "  \"unpacked_wall_seconds\": " << unpacked.wall_s;
    }
    json << "\n}\n";
    std::ofstream file(json_path);
    file << json.str();
    std::cout << (file ? "json written: " : "json write FAILED: ")
              << json_path << "\n";
  }

  if (smoke) {
    // ISSUE acceptance gates for the mixed 200-job workload.
    bool ok = true;
    const auto gate = [&ok](const std::string& name, bool pass) {
      std::cout << "gate " << name << ": " << (pass ? "ok" : "REGRESSION")
                << "\n";
      ok = ok && pass;
    };
    gate("cache_hit_rate > 0.9", stats.hit_rate() > 0.9);
    gate("batch_launch_reduction > 0.3",
         stats.batch_launch_reduction() > 0.3);
    gate("all_jobs_completed",
         stats.jobs_completed == static_cast<std::uint64_t>(jobs));
    gate("no_poisoned_graphs", stats.graphs_poisoned == 0);
    if (pack_mode) {
      // Executed-packing acceptance gates (this PR): packed beats unpacked
      // on modeled jobs/s by >= 1.3x and actually-executed launches drop by
      // >= 30% on the tiny-job workload.
      const double speedup =
          packed.jobs_per_modeled_s() /
          std::max(unpacked.jobs_per_modeled_s(), 1e-12);
      gate("packed_speedup >= 1.3", speedup >= 1.3);
      gate("packed_real_launch_reduction >= 0.3",
           packed.stats.real_launch_reduction() >= 0.3);
      gate("packed_all_jobs_completed",
           packed.stats.jobs_completed ==
               static_cast<std::uint64_t>(pack_jobs));
      gate("packed_dispatches > 0", packed.stats.packed_dispatches > 0);
    }
    if (!ok) {
      return 1;
    }
  }
  return 0;
}
