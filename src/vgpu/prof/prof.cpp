#include "vgpu/prof/prof.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/csv.h"
#include "common/trace_export.h"

namespace fastpso::vgpu::prof {

namespace detail {

namespace {
bool initial_enabled() {
  const char* e = std::getenv("FASTPSO_PROF");
  return e != nullptr && e[0] == '1' && e[1] == '\0';
}
std::vector<const char*>& label_stack() {
  static std::vector<const char*> stack;
  return stack;
}
}  // namespace

bool g_enabled = initial_enabled();

void push_label(const char* name) { label_stack().push_back(name); }

void pop_label() { label_stack().pop_back(); }

const char* current_label() {
  return label_stack().empty() ? nullptr : label_stack().back();
}

}  // namespace detail

void set_enabled(bool enabled) { detail::g_enabled = enabled; }

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kKernel:
      return "kernel";
    case EventKind::kMemcpyH2D:
      return "memcpy_h2d";
    case EventKind::kMemcpyD2H:
      return "memcpy_d2h";
    case EventKind::kMemcpyD2D:
      return "memcpy_d2d";
    case EventKind::kAlloc:
      return "alloc";
    case EventKind::kFree:
      return "free";
    case EventKind::kHost:
      return "host";
    case EventKind::kComm:
      return "comm";
  }
  return "unknown";
}

const char* to_string(Limiter limiter) {
  switch (limiter) {
    case Limiter::kNone:
      return "none";
    case Limiter::kCompute:
      return "compute";
    case Limiter::kMemory:
      return "memory";
  }
  return "unknown";
}

void Profile::clear() {
  events.clear();
  host_clock_ = 0;
}

void Profile::add_host(const char* label, const std::string& phase,
                       double seconds, double flops) {
  Event e;
  e.kind = EventKind::kHost;
  e.label = label;
  e.phase = phase;
  e.t_begin = host_clock_;
  e.modeled_seconds = seconds;
  e.cost.flops = flops;
  host_clock_ += seconds;
  events.push_back(std::move(e));
}

std::uint64_t Profile::kernel_count() const {
  return count(EventKind::kKernel);
}

std::uint64_t Profile::count(EventKind kind) const {
  std::uint64_t n = 0;
  for (const Event& e : events) {
    n += (e.kind == kind) ? 1 : 0;
  }
  return n;
}

double Profile::kernel_seconds() const {
  double s = 0;
  for (const Event& e : events) {
    if (e.kind == EventKind::kKernel) {
      s += e.modeled_seconds;
    }
  }
  return s;
}

double Profile::modeled_seconds() const {
  double s = 0;
  for (const Event& e : events) {
    s += e.modeled_seconds;
  }
  return s;
}

double Profile::kernel_wall_seconds() const {
  double s = 0;
  for (const Event& e : events) {
    if (e.kind == EventKind::kKernel) {
      s += e.wall_seconds;
    }
  }
  return s;
}

double Profile::flops() const {
  double s = 0;
  for (const Event& e : events) {
    if (e.kind == EventKind::kKernel || e.kind == EventKind::kHost) {
      s += e.cost.flops;
    }
  }
  return s;
}

double Profile::dram_read_fetched() const {
  // Same accumulation the device counters perform: kernels contribute their
  // fetched read bytes, d2d copies contribute their byte count, in order.
  double s = 0;
  for (const Event& e : events) {
    if (e.kind == EventKind::kKernel) {
      s += e.cost.fetched_read_bytes();
    } else if (e.kind == EventKind::kMemcpyD2D) {
      s += e.bytes;
    }
  }
  return s;
}

double Profile::dram_write_fetched() const {
  double s = 0;
  for (const Event& e : events) {
    if (e.kind == EventKind::kKernel) {
      s += e.cost.fetched_write_bytes();
    } else if (e.kind == EventKind::kMemcpyD2D) {
      s += e.bytes;
    }
  }
  return s;
}

std::map<std::string, double> Profile::seconds_by_phase() const {
  std::map<std::string, double> by_phase;
  for (const Event& e : events) {
    by_phase[e.phase] += e.modeled_seconds;
  }
  return by_phase;
}

std::vector<KernelRow> Profile::kernels_by_label() const {
  std::vector<KernelRow> rows;
  std::map<std::string, std::size_t> index;
  for (const Event& e : events) {
    if (e.kind != EventKind::kKernel) {
      continue;
    }
    auto [it, inserted] = index.emplace(e.label, rows.size());
    if (inserted) {
      KernelRow row;
      row.label = e.label;
      rows.push_back(std::move(row));
    }
    KernelRow& row = rows[it->second];
    ++row.launches;
    row.modeled_seconds += e.modeled_seconds;
    row.wall_seconds += e.wall_seconds;
    row.flops += e.cost.flops;
    row.fetched_read_bytes += e.cost.fetched_read_bytes();
    row.fetched_write_bytes += e.cost.fetched_write_bytes();
  }
  return rows;
}

std::vector<KernelRow> Profile::top_kernels(std::size_t n) const {
  std::vector<KernelRow> rows = kernels_by_label();
  std::sort(rows.begin(), rows.end(),
            [](const KernelRow& a, const KernelRow& b) {
              if (a.modeled_seconds != b.modeled_seconds) {
                return a.modeled_seconds > b.modeled_seconds;
              }
              return a.label < b.label;
            });
  if (rows.size() > n) {
    rows.resize(n);
  }
  return rows;
}

double Profile::modeled_vs_wall() const {
  const double wall = kernel_wall_seconds();
  return wall > 0 ? kernel_seconds() / wall : 0.0;
}

namespace {

/// Prints integral doubles as integers, everything else round-trippable
/// (the sanitizer trace convention, for stable golden files).
std::string fmt_num(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 9.0e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fmt_fixed(double v, int digits) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  out += json_escape(s);
  out += '"';
  return out;
}

}  // namespace

std::vector<TraceEvent> Profile::trace_events(int pid) const {
  std::vector<TraceEvent> trace;
  trace.reserve(events.size());
  for (const Event& e : events) {
    TraceEvent t;
    t.name = e.label;
    t.cat = to_string(e.kind);
    t.ts_us = e.t_begin * 1e6;
    t.dur_us = e.modeled_seconds * 1e6;
    t.pid = pid;
    t.tid = e.stream;
    t.args.emplace_back("phase", quoted(e.phase));
    if (e.kind == EventKind::kKernel) {
      t.args.emplace_back("grid", std::to_string(e.grid));
      t.args.emplace_back("block", std::to_string(e.block));
      t.args.emplace_back("flops", fmt_num(e.cost.flops));
      t.args.emplace_back("transcendentals",
                          fmt_num(e.cost.transcendentals));
      t.args.emplace_back("read_bytes", fmt_num(e.cost.dram_read_bytes));
      t.args.emplace_back("write_bytes", fmt_num(e.cost.dram_write_bytes));
      t.args.emplace_back("fetched_read_bytes",
                          fmt_num(e.cost.fetched_read_bytes()));
      t.args.emplace_back("fetched_write_bytes",
                          fmt_num(e.cost.fetched_write_bytes()));
      t.args.emplace_back("barriers", std::to_string(e.cost.barriers));
      t.args.emplace_back("compute_occupancy",
                          fmt_fixed(e.compute_occupancy, 6));
      t.args.emplace_back("memory_occupancy",
                          fmt_fixed(e.memory_occupancy, 6));
      t.args.emplace_back("limiter",
                          quoted(prof::to_string(e.limiter)));
    } else if (e.kind != EventKind::kHost) {
      t.args.emplace_back("bytes", fmt_num(e.bytes));
    }
    trace.push_back(std::move(t));
  }
  return trace;
}

std::string Profile::chrome_trace_json() const {
  return fastpso::chrome_trace_json(trace_events(/*pid=*/0));
}

bool Profile::write_chrome_trace(const std::string& path) const {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file.good()) {
    return false;
  }
  file << chrome_trace_json();
  return file.good();
}

std::vector<std::string> Profile::csv_header() {
  return {"index",        "kind",       "label",       "phase",
          "stream",       "grid",       "block",       "modeled_s",
          "wall_s",       "flops",      "transcendentals",
          "read_bytes",   "write_bytes", "fetched_read_bytes",
          "fetched_write_bytes", "bytes", "compute_occupancy",
          "memory_occupancy", "limiter"};
}

void Profile::to_csv(CsvWriter& csv) const {
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    csv.add_row({std::to_string(i), to_string(e.kind), e.label, e.phase,
                 std::to_string(e.stream), std::to_string(e.grid),
                 std::to_string(e.block), fmt_num(e.modeled_seconds),
                 fmt_num(e.wall_seconds), fmt_num(e.cost.flops),
                 fmt_num(e.cost.transcendentals),
                 fmt_num(e.cost.dram_read_bytes),
                 fmt_num(e.cost.dram_write_bytes),
                 fmt_num(e.cost.fetched_read_bytes()),
                 fmt_num(e.cost.fetched_write_bytes()), fmt_num(e.bytes),
                 fmt_fixed(e.compute_occupancy, 6),
                 fmt_fixed(e.memory_occupancy, 6),
                 prof::to_string(e.limiter)});
  }
}

bool Profile::write_csv(const std::string& path) const {
  CsvWriter csv(csv_header());
  to_csv(csv);
  return csv.write(path);
}

}  // namespace fastpso::vgpu::prof
