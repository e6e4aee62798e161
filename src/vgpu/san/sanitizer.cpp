#include "vgpu/san/sanitizer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "vgpu/prof/hooks.h"

namespace fastpso::vgpu::san {

namespace detail {
Session* g_session = nullptr;
}  // namespace detail

namespace {

/// Orders two accesses of the same launch: same (block, thread) is program
/// order; same block with different epochs is barrier order; anything else
/// is concurrent on real hardware.
bool ordered(std::int32_t block_a, std::int32_t thread_a, std::int32_t epoch_a,
             std::int32_t block_b, std::int32_t thread_b,
             std::int32_t epoch_b) {
  if (block_a == block_b && thread_a == thread_b) {
    return true;
  }
  return block_a == block_b && epoch_a != epoch_b;
}

std::string thread_str(std::int32_t block, std::int32_t thread,
                       std::int32_t epoch) {
  return "(block " + std::to_string(block) + ", thread " +
         std::to_string(thread) + ", epoch " + std::to_string(epoch) + ")";
}

/// Prints integral doubles as integers, everything else round-trippable.
std::string fmt_num(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 9.0e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

std::string pct(double drift) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f%%", 100.0 * drift);
  return buf;
}

}  // namespace

const char* to_string(Finding::Kind kind) {
  switch (kind) {
    case Finding::Kind::kOutOfBounds:
      return "out_of_bounds";
    case Finding::Kind::kWriteWriteRace:
      return "write_write_race";
    case Finding::Kind::kReadWriteRace:
      return "read_write_race";
    case Finding::Kind::kCoverageGap:
      return "coverage_gap";
    case Finding::Kind::kDoubleWrite:
      return "double_write";
    case Finding::Kind::kCostDrift:
      return "cost_drift";
    case Finding::Kind::kBarrierDrift:
      return "barrier_drift";
  }
  return "unknown";
}

double LaunchTrace::drift(double declared_v, double counted_v) {
  const double denom = std::max(std::abs(declared_v), std::abs(counted_v));
  if (denom == 0.0) {
    return 0.0;
  }
  return std::abs(counted_v - declared_v) / denom;
}

double LaunchTrace::max_drift() const {
  return std::max({read_drift(), write_drift(), flop_drift()});
}

int Report::count(Finding::Kind kind) const {
  int n = 0;
  for (const Finding& f : findings) {
    n += (f.kind == kind) ? 1 : 0;
  }
  return n;
}

double Report::max_cost_drift() const {
  double worst = 0.0;
  for (const LaunchTrace& t : launches) {
    if (t.audited) {
      worst = std::max(worst, t.max_drift());
    }
  }
  return worst;
}

std::string Report::summary() const {
  if (findings.empty()) {
    return "clean (" + std::to_string(launches.size()) + " launches)";
  }
  std::string out = std::to_string(findings.size()) + " finding(s):\n";
  for (const Finding& f : findings) {
    out += std::string("  [") + to_string(f.kind) + "] " + f.kernel;
    if (!f.buffer.empty()) {
      out += " buffer '" + f.buffer + "' index " + std::to_string(f.index);
    }
    out += ": " + f.detail + "\n";
  }
  return out;
}

std::string Report::to_json() const {
  std::string out = "{\n  \"launches\": [\n";
  for (std::size_t i = 0; i < launches.size(); ++i) {
    const LaunchTrace& t = launches[i];
    out += "    {\"kernel\": \"" + json_escape(t.kernel) +
           "\", \"grid\": " + std::to_string(t.grid) +
           ", \"block\": " + std::to_string(t.block) +
           ",\n     \"declared\": {\"flops\": " + fmt_num(t.declared.flops) +
           ", \"transcendentals\": " + fmt_num(t.declared.transcendentals) +
           ", \"read_bytes\": " + fmt_num(t.declared.dram_read_bytes) +
           ", \"write_bytes\": " + fmt_num(t.declared.dram_write_bytes) +
           ", \"barriers\": " + std::to_string(t.declared.barriers) + "},\n" +
           "     \"counted\": {\"flops\": " + fmt_num(t.counted.flops) +
           ", \"transcendentals\": " + fmt_num(t.counted.transcendentals) +
           ", \"read_bytes\": " + fmt_num(t.counted.read_bytes) +
           ", \"write_bytes\": " + fmt_num(t.counted.write_bytes) +
           ", \"barriers\": " + std::to_string(t.counted.barriers) + "},\n" +
           "     \"audited\": " + (t.audited ? "true" : "false") +
           ", \"findings\": " + std::to_string(t.findings) + "}";
    out += (i + 1 < launches.size()) ? ",\n" : "\n";
  }
  out += "  ],\n  \"findings\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += std::string("    {\"kind\": \"") + to_string(f.kind) +
           "\", \"kernel\": \"" + json_escape(f.kernel) + "\", \"buffer\": \"" +
           json_escape(f.buffer) + "\", \"index\": " + std::to_string(f.index) +
           ", \"detail\": \"" + json_escape(f.detail) + "\"}";
    out += (i + 1 < findings.size()) ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

// ---- session internals ---------------------------------------------------

struct Session::Impl {
  /// Per-element access state, valid while `serial` matches the launch.
  struct Cell {
    std::uint32_t serial = 0;
    std::int32_t w_block = -1;
    std::int32_t w_thread = -1;
    std::int32_t w_epoch = -1;
    std::int32_t r_block = -1;
    std::int32_t r_thread = -1;
    std::int32_t r_epoch = -1;
    std::uint32_t writes = 0;
    bool read_seen = false;
    bool write_seen = false;
    bool ww_reported = false;
    bool rw_reported = false;
  };

  struct Buffer {
    std::string name;
    std::size_t count = 0;
    std::size_t elem_bytes = 0;
    BufferClass cls = BufferClass::kGlobal;
    std::vector<Cell> cells;
    // Per-launch accumulators, valid while touch_serial matches.
    std::uint32_t touch_serial = 0;
    std::uint64_t unique_reads = 0;
    std::uint64_t unique_writes = 0;
    std::uint64_t multi_writes = 0;
  };

  SessionOptions options;
  std::vector<Buffer> buffers;
  std::unordered_map<const void*, int> buffer_by_ptr;

  bool in_launch = false;
  std::uint32_t launch_serial = 0;
  std::int32_t cur_block = 0;
  std::int32_t cur_thread = 0;
  std::int32_t cur_epoch = 0;
  int max_epoch = 0;
  CountedCost counted;
  LaunchConfig cur_cfg;
  KernelCostSpec cur_declared;
  std::string cur_label;
  AuditMode cur_mode = AuditMode::kFull;
  bool cur_labeled = false;
  int cur_findings = 0;
  std::vector<int> touched;           ///< buffer ids touched this launch
  std::vector<int> coverage_pending;  ///< expectations for the next launch
  std::vector<int> coverage_active;   ///< expectations for this launch

  std::vector<const char*> scope_stack;
  std::vector<AuditMode> scope_modes;

  Report report;

  void add_finding(Finding::Kind kind, const std::string& buffer,
                   std::int64_t index, std::string detail) {
    report.findings.push_back(Finding{kind, current_kernel(), buffer, index,
                                      std::move(detail)});
    if (in_launch) {
      ++cur_findings;
    }
  }

  [[nodiscard]] std::string current_kernel() const {
    if (!in_launch) {
      return "<host>";
    }
    return cur_labeled ? cur_label : "<unnamed>";
  }

  void begin_launch(const LaunchConfig& cfg, const KernelCostSpec& cost) {
    in_launch = true;
    ++launch_serial;
    cur_block = 0;
    cur_thread = 0;
    cur_epoch = 0;
    max_epoch = 0;
    counted = CountedCost{};
    cur_cfg = cfg;
    cur_declared = cost;
    cur_labeled = !scope_stack.empty();
    cur_label = cur_labeled ? scope_stack.back() : "";
    cur_mode = cur_labeled ? scope_modes.back() : AuditMode::kTraceOnly;
    cur_findings = 0;
    touched.clear();
    coverage_active = std::move(coverage_pending);
    coverage_pending.clear();
  }

  void touch(Buffer& buf, int id) {
    if (buf.touch_serial != launch_serial) {
      buf.touch_serial = launch_serial;
      buf.unique_reads = 0;
      buf.unique_writes = 0;
      buf.multi_writes = 0;
      touched.push_back(id);
    }
  }

  void record(int id, std::int64_t index, detail::AccessKind kind) {
    if (!in_launch || id < 0 ||
        static_cast<std::size_t>(id) >= buffers.size()) {
      return;  // host-side bookkeeping / a view from a finished session
    }
    Buffer& buf = buffers[static_cast<std::size_t>(id)];
    touch(buf, id);
    Cell& cell = buf.cells[static_cast<std::size_t>(index)];
    if (cell.serial != launch_serial) {
      cell = Cell{};
      cell.serial = launch_serial;
    }
    const bool race_checked =
        options.check_races && buf.cls != BufferClass::kAtomic;
    // Shared memory is per-block storage: the same virtual address in two
    // blocks is two distinct physical cells, so only same-block conflicts
    // can race.
    const bool shared = buf.cls == BufferClass::kShared;
    const auto races_with = [&](std::int32_t pb, std::int32_t pt,
                                std::int32_t pe) {
      if (shared && pb != cur_block) {
        return false;
      }
      return !ordered(pb, pt, pe, cur_block, cur_thread, cur_epoch);
    };
    if (kind == detail::AccessKind::kRead) {
      if (!cell.read_seen) {
        cell.read_seen = true;
        ++buf.unique_reads;
      }
      if (race_checked && cell.write_seen && !cell.rw_reported &&
          races_with(cell.w_block, cell.w_thread, cell.w_epoch)) {
        cell.rw_reported = true;
        add_finding(Finding::Kind::kReadWriteRace, buf.name, index,
                    "read by " + thread_str(cur_block, cur_thread, cur_epoch) +
                        " races write by " +
                        thread_str(cell.w_block, cell.w_thread, cell.w_epoch));
      }
      cell.r_block = cur_block;
      cell.r_thread = cur_thread;
      cell.r_epoch = cur_epoch;
    } else {
      if (race_checked && cell.write_seen && !cell.ww_reported &&
          races_with(cell.w_block, cell.w_thread, cell.w_epoch)) {
        cell.ww_reported = true;
        add_finding(Finding::Kind::kWriteWriteRace, buf.name, index,
                    "write by " + thread_str(cur_block, cur_thread, cur_epoch) +
                        " races write by " +
                        thread_str(cell.w_block, cell.w_thread, cell.w_epoch));
      }
      if (race_checked && cell.read_seen && !cell.rw_reported &&
          races_with(cell.r_block, cell.r_thread, cell.r_epoch)) {
        cell.rw_reported = true;
        add_finding(Finding::Kind::kReadWriteRace, buf.name, index,
                    "write by " + thread_str(cur_block, cur_thread, cur_epoch) +
                        " races read by " +
                        thread_str(cell.r_block, cell.r_thread, cell.r_epoch));
      }
      if (!cell.write_seen) {
        cell.write_seen = true;
        ++buf.unique_writes;
      }
      ++cell.writes;
      if (cell.writes == 2) {
        ++buf.multi_writes;
      }
      cell.w_block = cur_block;
      cell.w_thread = cur_thread;
      cell.w_epoch = cur_epoch;
    }
  }

  void validate_coverage() {
    for (int id : coverage_active) {
      Buffer& buf = buffers[static_cast<std::size_t>(id)];
      const bool touched_now = buf.touch_serial == launch_serial;
      const std::uint64_t written = touched_now ? buf.unique_writes : 0;
      if (written < buf.count) {
        std::int64_t first_gap = 0;
        for (std::size_t i = 0; i < buf.cells.size(); ++i) {
          const Cell& c = buf.cells[i];
          if (c.serial != launch_serial || !c.write_seen) {
            first_gap = static_cast<std::int64_t>(i);
            break;
          }
        }
        add_finding(Finding::Kind::kCoverageGap, buf.name, first_gap,
                    std::to_string(written) + " of " +
                        std::to_string(buf.count) +
                        " elements written (first gap at " +
                        std::to_string(first_gap) + ")");
      }
      if (touched_now && buf.multi_writes > 0) {
        std::int64_t first_double = 0;
        for (std::size_t i = 0; i < buf.cells.size(); ++i) {
          const Cell& c = buf.cells[i];
          if (c.serial == launch_serial && c.writes > 1) {
            first_double = static_cast<std::int64_t>(i);
            break;
          }
        }
        add_finding(Finding::Kind::kDoubleWrite, buf.name, first_double,
                    std::to_string(buf.multi_writes) +
                        " element(s) written more than once (first at " +
                        std::to_string(first_double) + ")");
      }
    }
    coverage_active.clear();
  }

  void end_launch() {
    for (int id : touched) {
      const Buffer& buf = buffers[static_cast<std::size_t>(id)];
      if (buf.cls == BufferClass::kShared) {
        continue;  // shared-memory traffic is not DRAM
      }
      counted.read_bytes +=
          static_cast<double>(buf.unique_reads * buf.elem_bytes);
      counted.write_bytes +=
          static_cast<double>(buf.unique_writes * buf.elem_bytes);
    }
    counted.barriers = max_epoch;
    validate_coverage();

    const bool audited = cur_labeled && cur_mode == AuditMode::kFull;
    if (audited && options.audit_costs) {
      const auto check = [&](const char* what, double declared_v,
                             double counted_v) {
        const double drift = LaunchTrace::drift(declared_v, counted_v);
        if (drift > options.cost_tolerance) {
          add_finding(Finding::Kind::kCostDrift, "", 0,
                      std::string(what) + " declared " + fmt_num(declared_v) +
                          " vs counted " + fmt_num(counted_v) + " (drift " +
                          pct(drift) + ")");
        }
      };
      check("flops", cur_declared.flops, counted.flops);
      check("transcendentals", cur_declared.transcendentals,
            counted.transcendentals);
      check("read_bytes", cur_declared.dram_read_bytes, counted.read_bytes);
      check("write_bytes", cur_declared.dram_write_bytes, counted.write_bytes);
      if (cur_declared.barriers != counted.barriers) {
        add_finding(Finding::Kind::kBarrierDrift, "", 0,
                    "declared " + std::to_string(cur_declared.barriers) +
                        " barrier(s) vs counted " +
                        std::to_string(counted.barriers));
      }
    }

    LaunchTrace trace;
    trace.kernel = current_kernel();
    trace.grid = cur_cfg.grid;
    trace.block = cur_cfg.block;
    trace.declared = cur_declared;
    trace.counted = counted;
    trace.audited = audited;
    trace.findings = cur_findings;
    report.launches.push_back(std::move(trace));
    in_launch = false;
  }
};

Session::Session(SessionOptions options) : options_(options), impl_(nullptr) {
  // Check before allocating: a throwing constructor must not leak impl_.
  FASTPSO_CHECK_MSG(detail::g_session == nullptr,
                    "a san::Session is already recording");
  impl_ = new Impl{};
  impl_->options = options;
  detail::g_session = this;
}

Session::~Session() {
  finish();
  delete impl_;
}

const Report& Session::finish() {
  if (!finished_) {
    finished_ = true;
    if (detail::g_session == this) {
      detail::g_session = nullptr;
    }
    report_ = std::move(impl_->report);
  }
  return report_;
}

KernelScope::KernelScope(const char* name, AuditMode mode) {
  Session* s = Session::current();
  if (s != nullptr) {
    s->impl().scope_stack.push_back(name);
    s->impl().scope_modes.push_back(mode);
    pushed_ = true;
  }
  // The same label names the kernel in the profiler's timeline, whether or
  // not a sanitizer session is recording.
  if (prof::active()) {
    prof::detail::push_label(name);
    prof_pushed_ = true;
  }
}

KernelScope::~KernelScope() {
  Session* s = Session::current();
  if (pushed_ && s != nullptr) {
    s->impl().scope_stack.pop_back();
    s->impl().scope_modes.pop_back();
  }
  if (prof_pushed_) {
    prof::detail::pop_label();
  }
}

namespace detail {

void count_flops_slow(double n) {
  Session* s = Session::current();
  if (s != nullptr && s->impl().in_launch) {
    s->impl().counted.flops += n;
  }
}

void count_transcendentals_slow(double n) {
  Session* s = Session::current();
  if (s != nullptr && s->impl().in_launch) {
    s->impl().counted.transcendentals += n;
  }
}

}  // namespace detail

namespace detail {

void launch_begin(const LaunchConfig& cfg, const KernelCostSpec& cost) {
  g_session->impl().begin_launch(cfg, cost);
}

void launch_end() { g_session->impl().end_launch(); }

void block_begin(std::int64_t block_idx) {
  Session::Impl& s = g_session->impl();
  s.cur_block = static_cast<std::int32_t>(block_idx);
  s.cur_thread = 0;
  s.cur_epoch = 0;
}

void thread_begin(std::int64_t block_idx, int thread_idx) {
  Session::Impl& s = g_session->impl();
  s.cur_block = static_cast<std::int32_t>(block_idx);
  s.cur_thread = thread_idx;
}

void barrier() {
  Session::Impl& s = g_session->impl();
  if (!s.in_launch) {
    return;
  }
  ++s.cur_epoch;
  s.max_epoch = std::max(s.max_epoch, static_cast<int>(s.cur_epoch));
}

int register_buffer(const void* data, std::size_t count,
                    std::size_t elem_bytes, const char* name,
                    BufferClass cls) {
  if (g_session == nullptr || data == nullptr) {
    return -1;
  }
  Session::Impl& s = g_session->impl();
  auto it = s.buffer_by_ptr.find(data);
  if (it != s.buffer_by_ptr.end()) {
    // Same storage re-tracked (possibly under a new name after pool reuse):
    // refresh the descriptor, keep the id. Cells are launch-serial-guarded,
    // so stale per-launch state is inert.
    Session::Impl::Buffer& buf =
        s.buffers[static_cast<std::size_t>(it->second)];
    buf.name = name;
    buf.cls = cls;
    buf.elem_bytes = elem_bytes;  // address reuse may change the type too
    if (buf.count != count) {
      buf.count = count;
      buf.cells.assign(count, Session::Impl::Cell{});
      buf.touch_serial = 0;
    }
    return it->second;
  }
  Session::Impl::Buffer buf;
  buf.name = name;
  buf.count = count;
  buf.elem_bytes = elem_bytes;
  buf.cls = cls;
  buf.cells.assign(count, Session::Impl::Cell{});
  const int id = static_cast<int>(s.buffers.size());
  s.buffers.push_back(std::move(buf));
  s.buffer_by_ptr.emplace(data, id);
  return id;
}

void record_access(int buffer_id, std::int64_t index, AccessKind kind) {
  if (g_session == nullptr) {
    return;
  }
  g_session->impl().record(buffer_id, index, kind);
}

bool report_oob(const char* name, std::int64_t index, std::size_t count,
                AccessKind kind) {
  if (g_session == nullptr) {
    return false;
  }
  Session::Impl& s = g_session->impl();
  s.add_finding(Finding::Kind::kOutOfBounds, name, index,
                std::string(kind == AccessKind::kWrite ? "write" : "read") +
                    " at index " + std::to_string(index) + " of " +
                    std::to_string(count));
  return true;
}

void expect_writes_exactly_once(int buffer_id) {
  if (g_session == nullptr) {
    return;
  }
  g_session->impl().coverage_pending.push_back(buffer_id);
}

}  // namespace detail

}  // namespace fastpso::vgpu::san
