// micro_engine: engine-level microbenchmarks for the host execution fast
// path (DESIGN.md §1). Four probes:
//
//   1. launch throughput — a trivial element-wise kernel dispatched through
//      Device::launch_kernel with the fast path on (flat element loop) and
//      off (faithful per-virtual-thread grid-stride), in launches/sec.
//   2. eval throughput — Problem::eval_batch (one virtual call per batch,
//      devirtualized inner loop) vs. one virtual eval_f32 call per particle,
//      in particle evaluations/sec.
//   3. end-to-end wall-clock of the fixed table1 --smoke configuration
//      (4 problems x 7 implementations, 64 particles, dim 8, 5 executed
//      iterations), best of a few repetitions.
//   4. (--prof-overhead) launch throughput with the vgpu::prof profiler off
//      vs on — the off number pins the "zero overhead when off" promise
//      (one branch on the hot path), the on number reports the cost of
//      event capture, plus the profile's modeled-vs-wall ratio.
//
// Both launch paths issue the identical account_launch call, so modeled
// seconds and DeviceCounters are unaffected by the toggle — the probes
// measure host execution speed only. The output names the widest SIMD form
// the batch paths ran ("simd": avx512f, avx2 or scalar; common/cpu.h), since
// the eval and table1 readings depend on it.
//
//   ./micro_engine [--smoke] [--prof-overhead]
//                  [--json BENCH_engine.json]
//                  [--baseline bench/BENCH_engine_baseline.json]
//
// --smoke shrinks the repetition counts for CI and emits BENCH_engine.json.
// --baseline compares against a checked-in conservative baseline and exits
// non-zero when any metric regresses by more than 2x; with --prof-overhead
// it additionally fails if profiler-off launch throughput sits more than 5%
// below the baseline (the profiler must stay free when disabled).

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "bench_common.h"
#include "common/cpu.h"
#include "common/stopwatch.h"
#include "problems/problem.h"
#include "vgpu/device.h"
#include "vgpu/prof/prof.h"

using namespace fastpso;
using namespace fastpso::benchkit;

namespace {

/// The trivial element kernel both launch probes dispatch.
struct MaddKernel {
  struct Args {
    const float* src;
    float* dst;
  };
  static void element(const Args& a, std::int64_t i) {
    a.dst[i] = a.src[i] * 2.0f + 1.0f;
  }
};

/// The launch probes' kernel over `n_elems` floats. `src` and `dst` are
/// carved from one allocation with dst - src = 2048 bytes (mod 4096), so
/// the layout does not depend on where the heap puts two vectors, and a
/// load of src never shares its low 12 address bits with a dst element
/// just stored (4K aliasing). Two back-to-back vectors sat 16,400 bytes
/// apart, 16 mod 4096.
class MaddLaunch {
 public:
  explicit MaddLaunch(std::int64_t n_elems)
      : n_elems_(n_elems),
        dst_offset_(static_cast<std::size_t>((n_elems + 511) / 1024 * 1024 +
                                             512)),
        storage_(dst_offset_ + static_cast<std::size_t>(n_elems), 0.0f) {
    for (std::int64_t i = 0; i < n_elems; ++i) {
      storage_[static_cast<std::size_t>(i)] =
          static_cast<float>(i % 97) * 0.125f;
    }
    cfg_.block = 256;
    cfg_.grid = (n_elems + cfg_.block - 1) / cfg_.block;
    cost_.flops = 2.0 * static_cast<double>(n_elems);
    cost_.dram_read_bytes = static_cast<double>(n_elems) * sizeof(float);
    cost_.dram_write_bytes = static_cast<double>(n_elems) * sizeof(float);
  }

  void run(vgpu::Device& device, int count) {
    const MaddKernel::Args args{storage_.data(),
                                storage_.data() + dst_offset_};
    for (int rep = 0; rep < count; ++rep) {
      device.launch_kernel<MaddKernel>(cfg_, cost_, n_elems_, args);
    }
  }

  /// Last output element (defeats dead-code elimination).
  [[nodiscard]] double last() const {
    return static_cast<double>(storage_.back());
  }

 private:
  std::int64_t n_elems_;
  std::size_t dst_offset_;  ///< in floats: >= n_elems, 512 mod 1024
  std::vector<float> storage_;
  vgpu::LaunchConfig cfg_;
  vgpu::KernelCostSpec cost_;
};

struct LaunchResult {
  double fast_per_s = 0;
  double legacy_per_s = 0;
  double checksum = 0;  ///< defeats dead-code elimination
};

/// Trivial-body element-wise kernel, timed with the fast path on and off.
/// The body is one fused multiply-add so the flat loop vectorizes; the
/// legacy path pays the per-virtual-thread dispatch that the fast path
/// removes. Same cfg, same cost, same account_launch on both sides.
LaunchResult bench_launch(std::int64_t n_elems, int reps) {
  vgpu::Device device;
  MaddLaunch madd(n_elems);

  const bool saved = vgpu::fast_path_enabled();
  LaunchResult r;
  for (const bool fast : {true, false}) {
    vgpu::set_fast_path_enabled(fast);
    madd.run(device, reps / 10 + 1);  // warmup
    Stopwatch watch;
    madd.run(device, reps);
    const double per_s = reps / watch.elapsed_s();
    (fast ? r.fast_per_s : r.legacy_per_s) = per_s;
    r.checksum += madd.last();
  }
  vgpu::set_fast_path_enabled(saved);
  return r;
}

struct EvalResult {
  double batch_per_s = 0;    ///< particle evaluations/sec via eval_batch
  double virtual_per_s = 0;  ///< one virtual eval_f32 call per particle
  double checksum = 0;
};

/// Interleaved best-of-k probe. The old layout timed all batch reps, then
/// all virtual reps, back to back — a frequency ramp or noisy neighbor
/// landing on one half swung the reported speedup from ~0.5x to ~2.2x on
/// the same binary. Alternating short rounds and keeping each side's best
/// round hits both paths with the same machine state, so the ratio
/// measures dispatch cost, not scheduling luck.
EvalResult bench_eval(const std::string& problem_name, int n, int d,
                      int reps) {
  const std::unique_ptr<problems::Problem> problem =
      problems::make_problem(problem_name);
  std::vector<float> x(static_cast<std::size_t>(n) * d);
  std::vector<float> out(static_cast<std::size_t>(n), 0.0f);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(i % 251) * 0.01f - 1.0f;
  }

  const problems::Problem* base = problem.get();
  const auto run_batch = [&](int count) {
    for (int rep = 0; rep < count; ++rep) {
      base->eval_batch(x.data(), n, d, out.data());
    }
  };
  const auto run_virtual = [&](int count) {
    for (int rep = 0; rep < count; ++rep) {
      for (int i = 0; i < n; ++i) {
        out[static_cast<std::size_t>(i)] = static_cast<float>(
            base->eval_f32(x.data() + static_cast<std::size_t>(i) * d, d));
      }
    }
  };

  // Nine short rounds: this box shows ~2x wall noise on 30 ms windows, and
  // min-of-k over ~1 ms rounds is the estimator that stays stable (1.3x -
  // 1.6x across process runs, never below 1.0) where one long pass per
  // side swung 0.5x - 2.2x.
  constexpr int kRounds = 9;
  const int round_reps = reps / kRounds + 1;
  const double round_evals = static_cast<double>(round_reps) * n;
  double best_batch_s = 0;
  double best_virtual_s = 0;
  EvalResult r;
  run_batch(round_reps / 4 + 1);    // warmup
  run_virtual(round_reps / 4 + 1);  // warmup
  for (int round = 0; round < kRounds; ++round) {
    {
      Stopwatch watch;
      run_batch(round_reps);
      const double s = watch.elapsed_s();
      if (round == 0 || s < best_batch_s) {
        best_batch_s = s;
      }
    }
    {
      Stopwatch watch;
      run_virtual(round_reps);
      const double s = watch.elapsed_s();
      if (round == 0 || s < best_virtual_s) {
        best_virtual_s = s;
      }
    }
    r.checksum += static_cast<double>(out[static_cast<std::size_t>(n - 1)]);
  }
  r.batch_per_s = round_evals / best_batch_s;
  r.virtual_per_s = round_evals / best_virtual_s;
  return r;
}

struct ProfOverheadResult {
  double off_per_s = 0;       ///< fast-path launches/s, profiler disabled
  double on_per_s = 0;        ///< fast-path launches/s, profiler enabled
  double modeled_vs_wall = 0; ///< from the captured profile (on pass)
  double checksum = 0;
};

/// Same trivial kernel as bench_launch, fast path pinned on, timed with the
/// profiler disabled and enabled. The off pass is the contract: profiling
/// costs one predicted branch when inactive, so off throughput must match
/// plain fast-path launch throughput.
ProfOverheadResult bench_prof_overhead(std::int64_t n_elems, int reps) {
  vgpu::Device device;
  MaddLaunch madd(n_elems);

  const bool saved_fast = vgpu::fast_path_enabled();
  const bool saved_prof = vgpu::prof::active();
  vgpu::set_fast_path_enabled(true);
  ProfOverheadResult r;
  for (const bool prof_on : {false, true}) {
    vgpu::prof::set_enabled(prof_on);
    madd.run(device, reps / 10 + 1);  // warmup
    (void)device.take_profile();   // timed pass starts with an empty timeline
    Stopwatch watch;
    madd.run(device, reps);
    const double per_s = reps / watch.elapsed_s();
    (prof_on ? r.on_per_s : r.off_per_s) = per_s;
    if (prof_on) {
      r.modeled_vs_wall = device.take_profile().modeled_vs_wall();
    }
    r.checksum += madd.last();
  }
  vgpu::prof::set_enabled(saved_prof);
  vgpu::set_fast_path_enabled(saved_fast);
  return r;
}

/// Wall-clock of the exact table1_overall --smoke cell set; best of `reps`.
double bench_table1_smoke(int reps) {
  const std::vector<std::string> problems = {"sphere", "griewank", "easom",
                                             "threadconf"};
  const auto impls = all_impls();
  double best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    for (const auto& problem : problems) {
      for (Impl impl : impls) {
        RunSpec spec;
        spec.impl = impl;
        spec.problem = problem;
        spec.particles = 64;
        spec.dim = 8;
        spec.iters = 50;
        spec.executed_iters = 5;
        spec.seed = 42;
        run_spec(spec);
      }
    }
    const double elapsed = watch.elapsed_s();
    if (rep == 0 || elapsed < best) {
      best = elapsed;
    }
  }
  return best;
}

/// Minimal extractor for the flat numeric fields this bench emits: finds
/// `"key":` in `text` and parses the number that follows. Good enough for
/// the baseline files we write ourselves; returns `fallback` when absent.
double json_number(const std::string& text, const std::string& key,
                   double fallback) {
  const std::string needle = "\"" + key + "\"";
  std::size_t pos = text.find(needle);
  if (pos == std::string::npos) {
    return fallback;
  }
  pos = text.find(':', pos + needle.size());
  if (pos == std::string::npos) {
    return fallback;
  }
  return std::strtod(text.c_str() + pos + 1, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const bool smoke = args.get_bool("smoke", false);
  const bool prof_overhead = args.get_bool("prof-overhead", false);
  const std::string json_path = args.get_string("json", "BENCH_engine.json");
  const std::string baseline_path = args.get_string("baseline", "");

  const std::int64_t launch_elems = 4096;
  const int launch_reps = smoke ? 4000 : 20000;
  const int eval_n = smoke ? 512 : 2048;
  const int eval_d = 32;
  const int eval_reps = smoke ? 1000 : 4000;
  const int table1_reps = smoke ? 3 : 5;

  const LaunchResult launch = bench_launch(launch_elems, launch_reps);
  const EvalResult eval = bench_eval("sphere", eval_n, eval_d, eval_reps);
  const double table1_wall = bench_table1_smoke(table1_reps);
  ProfOverheadResult prof;
  if (prof_overhead) {
    prof = bench_prof_overhead(launch_elems, launch_reps);
  }

  const double launch_speedup = launch.fast_per_s / launch.legacy_per_s;
  const double eval_speedup = eval.batch_per_s / eval.virtual_per_s;

  TextTable table("micro_engine: host execution fast path");
  table.set_header({"metric", "fast/batch", "legacy/virtual", "speedup"});
  table.add_row({"launches/s (n=" + std::to_string(launch_elems) + ")",
                 fmt_sci(launch.fast_per_s), fmt_sci(launch.legacy_per_s),
                 fmt_speedup(launch_speedup)});
  table.add_row({"evals/s (sphere " + std::to_string(eval_n) + "x" +
                     std::to_string(eval_d) + ")",
                 fmt_sci(eval.batch_per_s), fmt_sci(eval.virtual_per_s),
                 fmt_speedup(eval_speedup)});
  table.add_row({"table1 --smoke wall (s)", fmt_fixed(table1_wall, 4), "-",
                 "-"});
  if (prof_overhead) {
    // "speedup" column = off/on: how much slower launches get with the
    // profiler capturing events (1.0x would be free).
    table.add_row({"launches/s prof off/on",
                   fmt_sci(prof.off_per_s), fmt_sci(prof.on_per_s),
                   fmt_speedup(prof.off_per_s / prof.on_per_s)});
    table.add_row({"modeled-vs-wall (prof on)",
                   fmt_speedup(prof.modeled_vs_wall), "-", "-"});
  }
  table.add_note("identical account_launch on both paths: modeled seconds "
                 "and counters do not depend on the toggle");
  table.print(std::cout);
  std::cout << "\"simd\": \"" << cpu_simd_name() << "\"\n";

  if (!json_path.empty()) {
    std::ostringstream json;
    json.setf(std::ios::fixed);
    json.precision(3);
    json << "{\n"
         << "  \"schema\": \"fastpso-bench-engine-v1\",\n"
         << "  \"simd\": \"" << cpu_simd_name() << "\",\n"
         << "  \"launch\": {\n"
         << "    \"n_elems\": " << launch_elems << ",\n"
         << "    \"reps\": " << launch_reps << ",\n"
         << "    \"fast_launches_per_s\": " << launch.fast_per_s << ",\n"
         << "    \"legacy_launches_per_s\": " << launch.legacy_per_s << ",\n"
         << "    \"speedup\": " << launch_speedup << "\n"
         << "  },\n"
         << "  \"eval\": {\n"
         << "    \"n\": " << eval_n << ",\n"
         << "    \"dim\": " << eval_d << ",\n"
         << "    \"batch_evals_per_s\": " << eval.batch_per_s << ",\n"
         << "    \"virtual_evals_per_s\": " << eval.virtual_per_s << ",\n"
         << "    \"speedup\": " << eval_speedup << "\n"
         << "  },\n";
    if (prof_overhead) {
      json << "  \"prof\": {\n"
           << "    \"off_launches_per_s\": " << prof.off_per_s << ",\n"
           << "    \"on_launches_per_s\": " << prof.on_per_s << ",\n"
           << "    \"overhead_ratio\": " << prof.off_per_s / prof.on_per_s
           << ",\n"
           << "    \"modeled_vs_wall\": " << prof.modeled_vs_wall << "\n"
           << "  },\n";
    }
    json << "  \"table1_smoke\": {\n";
    json.precision(6);
    json << "    \"wall_s\": " << table1_wall << "\n"
         << "  }\n"
         << "}\n";
    std::ofstream file(json_path);
    file << json.str();
    std::cout << (file ? "json written: " : "json write FAILED: ")
              << json_path << "\n";
  }

  if (!baseline_path.empty()) {
    std::ifstream file(baseline_path);
    if (!file) {
      std::cerr << "baseline read FAILED: " << baseline_path << "\n";
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    const std::string text = buffer.str();
    const double base_launch =
        json_number(text, "fast_launches_per_s", 0.0);
    const double base_eval = json_number(text, "batch_evals_per_s", 0.0);
    const double base_wall = json_number(text, "wall_s", 0.0);
    std::vector<std::string> failed;
    // Every failure names its metric, the measured value, the limit it
    // crossed and the rule behind the limit — a red CI line is actionable
    // without rerunning locally.
    auto gate = [&](const char* name, bool pass, double have, double want,
                    const char* rule) {
      std::cout << "gate " << name << ": " << (pass ? "ok" : "REGRESSION")
                << " (" << fmt_sci(have) << " vs limit " << fmt_sci(want)
                << "; rule: " << rule << ")\n";
      if (!pass) {
        failed.emplace_back(name);
      }
    };
    // >2x regression fails: throughputs may not halve, wall may not double.
    gate("launch_throughput", launch.fast_per_s >= base_launch / 2.0,
         launch.fast_per_s, base_launch / 2.0, ">= baseline/2");
    gate("eval_throughput", eval.batch_per_s >= base_eval / 2.0,
         eval.batch_per_s, base_eval / 2.0, ">= baseline/2");
    // The batch dispatch must never lose to per-particle virtual calls;
    // the interleaved best-of-k probe makes this stable enough to gate.
    gate("eval_speedup", eval_speedup >= 1.0, eval_speedup, 1.0,
         "batch >= virtual (>= 1.0x)");
    gate("table1_smoke_wall", table1_wall <= base_wall * 2.0, table1_wall,
         base_wall * 2.0, "<= 2x baseline");
    if (prof_overhead) {
      // Tighter bar than the 2x gates: with the profiler off the launch
      // path must stay within 5% of the baseline throughput, otherwise the
      // "disabled profiling is free" promise has been broken.
      gate("prof_off_launch_throughput",
           prof.off_per_s >= base_launch / 1.05, prof.off_per_s,
           base_launch / 1.05, ">= baseline/1.05 (prof off is free)");
    }
    if (!failed.empty()) {
      std::cerr << "micro_engine: regression vs baseline " << baseline_path
                << " in:";
      for (const auto& name : failed) {
        std::cerr << " " << name;
      }
      std::cerr << "\n";
      return 1;
    }
  }
  return 0;
}
