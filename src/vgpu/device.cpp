#include "vgpu/device.h"

#include <algorithm>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "vgpu/graph/graph.h"
#include "vgpu/memory_pool.h"
#include "vgpu/prof/prof.h"

namespace fastpso::vgpu {

namespace {
// Process-wide toggle, read and written only by the host thread driving the
// launches (split kernel bodies never read it), so a plain bool is enough.
// Defaults to on (FASTPSO_FAST_PATH=0 in the environment starts it off,
// for A/B timing) — tests flip it to pin the legacy engine.
bool initial_fast_path() {
  const char* env = std::getenv("FASTPSO_FAST_PATH");
  return env == nullptr || std::string_view(env) != "0";
}
bool g_fast_path_enabled = initial_fast_path();
}  // namespace

bool fast_path_enabled() { return g_fast_path_enabled; }

void set_fast_path_enabled(bool enabled) { g_fast_path_enabled = enabled; }

std::byte* Device::shared_scratch(std::size_t bytes) {
  if (shared_scratch_.size() < bytes) {
    shared_scratch_.resize(bytes);
  }
  return shared_scratch_.data();
}

LaunchConfig LaunchConfig::for_elements(const GpuSpec& spec,
                                        std::int64_t elements, int block,
                                        std::int64_t max_blocks) {
  FASTPSO_CHECK(elements > 0);
  FASTPSO_CHECK(block > 0 && block <= spec.max_threads_per_block);
  LaunchConfig cfg;
  cfg.block = block;
  cfg.grid = std::min<std::int64_t>((elements + block - 1) / block,
                                    max_blocks);
  return cfg;
}

Device::Device(GpuSpec spec)
    : spec_(std::move(spec)), perf_(spec_) {
  pool_ = std::make_unique<MemoryPool>(*this, /*enabled=*/true);
}

Device::~Device() {
  // Release pool cache before checking for leaks from raw users.
  pool_->release_cache();
  for (auto& [ptr, bytes] : allocations_) {
    (void)bytes;
    std::free(ptr);
  }
}

void* Device::raw_alloc(std::size_t bytes) {
  FASTPSO_CHECK_MSG(bytes > 0, "zero-byte device allocation");
  FASTPSO_CHECK_MSG(bytes_in_use_ + bytes <= spec_.global_mem_bytes,
                    "device out of memory (" + spec_.name + ")");
  void* p = std::malloc(bytes);
  FASTPSO_CHECK_MSG(p != nullptr, "host allocation failed");
  allocations_[p] = bytes;
  bytes_in_use_ += bytes;
  ++counters_.allocs;
  const double seconds = perf_.alloc_seconds();
  if (prof::active()) [[unlikely]] {
    prof_record_op(prof::EventKind::kAlloc, static_cast<double>(bytes),
                   seconds, 0.0);
  }
  add_modeled(seconds);
  return p;
}

void Device::raw_free(void* p) {
  pack_flush_lane();  // a deferred span may still read this storage
  auto it = allocations_.find(p);
  FASTPSO_CHECK_MSG(it != allocations_.end(),
                    "device free of unknown or already-freed pointer");
  const double bytes = static_cast<double>(it->second);
  bytes_in_use_ -= it->second;
  std::free(p);
  allocations_.erase(it);
  ++counters_.frees;
  const double seconds = perf_.free_seconds();
  if (prof::active()) [[unlikely]] {
    prof_record_op(prof::EventKind::kFree, bytes, seconds, 0.0);
  }
  add_modeled(seconds);
}

void Device::memcpy_h2d(void* dst, const void* src, std::size_t bytes) {
  pack_flush_lane();
  if (graph_mode_ == GraphMode::kCapturing) [[unlikely]] {
    capture_graph_->record_memcpy(graph::NodeKind::kMemcpyH2D, dst, src,
                                  static_cast<double>(bytes),
                                  current_stream_, phase_);
  }
  const double seconds = perf_.transfer_seconds(static_cast<double>(bytes));
  if (prof::active()) [[unlikely]] {
    Stopwatch wall;
    std::memcpy(dst, src, bytes);
    prof_record_op(prof::EventKind::kMemcpyH2D, static_cast<double>(bytes),
                   seconds, wall.elapsed_s());
  } else {
    std::memcpy(dst, src, bytes);
  }
  ++counters_.transfers;
  counters_.h2d_bytes += static_cast<double>(bytes);
  add_modeled(seconds);
}

void Device::memcpy_d2h(void* dst, const void* src, std::size_t bytes) {
  pack_flush_lane();
  if (graph_mode_ == GraphMode::kCapturing) [[unlikely]] {
    capture_graph_->record_memcpy(graph::NodeKind::kMemcpyD2H, dst, src,
                                  static_cast<double>(bytes),
                                  current_stream_, phase_);
  }
  const double seconds = perf_.transfer_seconds(static_cast<double>(bytes));
  if (prof::active()) [[unlikely]] {
    Stopwatch wall;
    std::memcpy(dst, src, bytes);
    prof_record_op(prof::EventKind::kMemcpyD2H, static_cast<double>(bytes),
                   seconds, wall.elapsed_s());
  } else {
    std::memcpy(dst, src, bytes);
  }
  ++counters_.transfers;
  counters_.d2h_bytes += static_cast<double>(bytes);
  add_modeled(seconds);
}

void Device::memcpy_d2d(void* dst, const void* src, std::size_t bytes) {
  pack_flush_lane();
  if (graph_mode_ == GraphMode::kCapturing) [[unlikely]] {
    capture_graph_->record_memcpy(graph::NodeKind::kMemcpyD2D, dst, src,
                                  static_cast<double>(bytes),
                                  current_stream_, phase_);
  }
  // Read + write of `bytes` at effective DRAM bandwidth.
  const double seconds =
      2.0 * static_cast<double>(bytes) / (spec_.eff_dram_bw_gbps * 1e9);
  if (prof::active()) [[unlikely]] {
    Stopwatch wall;
    std::memcpy(dst, src, bytes);
    prof_record_op(prof::EventKind::kMemcpyD2D, static_cast<double>(bytes),
                   seconds, wall.elapsed_s());
  } else {
    std::memcpy(dst, src, bytes);
  }
  ++counters_.transfers;
  counters_.dram_read_useful += static_cast<double>(bytes);
  counters_.dram_write_useful += static_cast<double>(bytes);
  counters_.dram_read_fetched += static_cast<double>(bytes);
  counters_.dram_write_fetched += static_cast<double>(bytes);
  add_modeled(seconds);
}

void Device::swap_accounting(DeviceCounters& counters,
                             TimeBreakdown& breakdown) {
  FASTPSO_CHECK_MSG(graph_mode_ == GraphMode::kOff,
                    "swap_accounting during an open capture/replay");
  std::swap(counters_, counters);
  modeled_breakdown_.swap(breakdown);
}

void Device::reset_counters() {
  counters_ = DeviceCounters{};
  modeled_breakdown_.clear();
  stream_clock_.assign(stream_clock_.size(), 0.0);
  if (profile_) {
    profile_->clear();
  }
}

Device::StreamId Device::create_stream() {
  stream_clock_.push_back(
      *std::max_element(stream_clock_.begin(), stream_clock_.end()));
  return static_cast<StreamId>(stream_clock_.size() - 1);
}

void Device::set_stream(StreamId stream) {
  FASTPSO_CHECK_MSG(stream >= 0 &&
                        stream < static_cast<StreamId>(stream_clock_.size()),
                    "unknown stream");
  current_stream_ = stream;
}

void Device::sync_streams() {
  const double now =
      *std::max_element(stream_clock_.begin(), stream_clock_.end());
  stream_clock_.assign(stream_clock_.size(), now);
}

void Device::stream_wait(StreamId stream, double seconds) {
  FASTPSO_CHECK_MSG(stream >= 0 &&
                        stream < static_cast<StreamId>(stream_clock_.size()),
                    "unknown stream");
  auto& clock = stream_clock_[static_cast<std::size_t>(stream)];
  clock = std::max(clock, seconds);
}

double Device::modeled_seconds() const {
  return *std::max_element(stream_clock_.begin(), stream_clock_.end());
}

void Device::add_modeled_host_seconds(double seconds) {
  FASTPSO_CHECK(seconds >= 0);
  if (prof::active()) [[unlikely]] {
    prof_record_op(prof::EventKind::kHost, 0.0, seconds, 0.0);
  }
  add_modeled(seconds);
}

void Device::account_comm(const char* label, double bytes, double seconds) {
  pack_flush_lane();
  FASTPSO_CHECK(bytes >= 0 && seconds >= 0);
  ++counters_.collectives;
  counters_.comm_bytes += bytes;
  counters_.comm_seconds += seconds;
  if (prof::active()) [[unlikely]] {
    if (!profile_) {
      profile_ = std::make_unique<prof::Profile>();
    }
    prof::Event e;
    e.kind = prof::EventKind::kComm;
    e.label = label;
    e.phase = phase_;
    e.stream = current_stream_;
    e.bytes = bytes;
    // Stream-local, like a kernel: the comm stream's own clock, so the
    // trace shows the collective overlapping compute on other streams.
    e.t_begin = stream_clock_[current_stream_];
    e.modeled_seconds = seconds;
    profile_->events.push_back(std::move(e));
  }
  add_modeled(seconds, /*device_wide=*/false);
}

void Device::account_launch(const LaunchConfig& cfg,
                            const KernelCostSpec& cost) {
  last_replay_node_ = -1;  // set again by a replay match (graph_account)
  if (graph_mode_ != GraphMode::kOff) [[unlikely]] {
    if (graph_account(cfg, cost)) {
      return;
    }
  }
  FASTPSO_CHECK(cfg.grid > 0);
  FASTPSO_CHECK_MSG(cfg.block > 0 && cfg.block <= spec_.max_threads_per_block,
                    "block size exceeds device limit");
  ++counters_.launches;
  counters_.barriers += static_cast<std::uint64_t>(cost.barriers);
  counters_.flops += cost.flops;
  counters_.transcendentals += cost.transcendentals;
  counters_.dram_read_useful += cost.dram_read_bytes;
  counters_.dram_write_useful += cost.dram_write_bytes;
  counters_.dram_read_fetched += cost.fetched_read_bytes();
  counters_.dram_write_fetched += cost.fetched_write_bytes();
  const double seconds =
      perf_.kernel_seconds(static_cast<double>(cfg.total_threads()), cost);
  counters_.kernel_seconds += seconds;
  if (prof::active()) [[unlikely]] {
    prof_record_kernel(cfg, cost, seconds);
  }
  add_modeled(seconds, /*device_wide=*/false);
}

bool Device::graph_account(const LaunchConfig& cfg,
                           const KernelCostSpec& cost) {
  if (graph_mode_ == GraphMode::kCapturing) {
    capture_graph_->record_kernel(cfg.grid, cfg.block, current_stream_,
                                  phase_, prof::detail::current_label(),
                                  cost);
    return false;  // the eager path still performs all accounting
  }
  const int index = replay_exec_->match_kernel(
      *replay_session_, cfg.grid, cfg.block, current_stream_, phase_);
  if (index < 0) {
    // Sequence diverged (or ran past the node list): eager fallback.
    replay_exec_->note_eager_launch();
    return false;
  }
  const graph::GraphExec::ExecNode* node =
      &replay_exec_->nodes()[static_cast<std::size_t>(index)];
  // Replay fast path. The matched node's grid/block equal this launch's, so
  // the launch-shape checks already passed at capture; cost values come
  // from the call site, and the node contributes only shape-derived
  // precomputes — every accounted value is byte-identical to eager mode.
  ++counters_.launches;
  counters_.barriers += static_cast<std::uint64_t>(cost.barriers);
  counters_.flops += cost.flops;
  counters_.transcendentals += cost.transcendentals;
  counters_.dram_read_useful += cost.dram_read_bytes;
  counters_.dram_write_useful += cost.dram_write_bytes;
  counters_.dram_read_fetched += cost.fetched_read_bytes();
  counters_.dram_write_fetched += cost.fetched_write_bytes();
  double t_compute = 0;
  double t_memory = 0;
  const double seconds =
      perf_.kernel_seconds_resolved(node->shape, cost, &t_compute, &t_memory);
  counters_.kernel_seconds += seconds;
  if (prof::active()) [[unlikely]] {
    prof_record_kernel_replay(cfg.grid, cfg.block, current_stream_, phase_,
                              prof::detail::current_label(), cost, seconds,
                              node->shape.compute_occupancy,
                              node->shape.memory_occupancy,
                              t_memory > t_compute);
  }
  counters_.modeled_seconds += seconds;
  *replay_session_->slots[static_cast<std::size_t>(index)] += seconds;
  stream_clock_[current_stream_] += seconds;
  if (node->fuse_group >= 0) {
    // Fusion is pure reporting under paired replay: the group accumulates
    // the live cost/seconds and is priced as one fused launch at
    // end_replay — nothing above changes.
    replay_exec_->note_member(*replay_session_, node->fuse_group, cost,
                              seconds);
  }
  // Deferral key for launch_elements (vgpu/pack.h).
  last_replay_node_ = index;
  last_replay_seconds_ = seconds;
  return true;
}

void Device::graph_capture_body(std::function<void()> body) {
  capture_graph_->attach_body(std::move(body));
}

void Device::graph_capture_elem_body(std::function<void(std::int64_t)> body) {
  capture_graph_->attach_elem_body(std::move(body));
}

void Device::graph_note_elements(std::int64_t elems) {
  if (graph_mode_ == GraphMode::kCapturing) {
    capture_graph_->note_elements(elems);
  }
}

void Device::graph_note_uses(std::vector<graph::BufferUse> uses) {
  if (graph_mode_ == GraphMode::kCapturing) {
    capture_graph_->note_uses(std::move(uses));
  }
}

void Device::graph_note_static(graph::codegen::StaticKernel kernel) {
  if (graph_mode_ == GraphMode::kCapturing) {
    capture_graph_->note_static(std::move(kernel));
  }
}

void Device::graph_attach_bodies(std::function<void()> body,
                                 std::function<void(std::int64_t)> elem_body) {
  if (graph_mode_ == GraphMode::kCapturing) {
    capture_graph_->attach_body(std::move(body));
    capture_graph_->attach_elem_body(std::move(elem_body));
  }
}

void Device::begin_capture(graph::Graph& g) {
  FASTPSO_CHECK_MSG(graph_mode_ == GraphMode::kOff,
                    "begin_capture during an open capture/replay");
  capture_graph_ = &g;
  graph_mode_ = GraphMode::kCapturing;
}

void Device::end_capture() {
  FASTPSO_CHECK_MSG(graph_mode_ == GraphMode::kCapturing,
                    "end_capture without begin_capture");
  capture_graph_ = nullptr;
  graph_mode_ = GraphMode::kOff;
}

void Device::begin_replay(graph::GraphExec& exec) {
  begin_replay(exec, exec.own_session());
}

void Device::begin_replay(graph::GraphExec& exec,
                          graph::GraphExec::ReplaySession& session) {
  FASTPSO_CHECK_MSG(graph_mode_ == GraphMode::kOff,
                    "begin_replay during an open capture/replay");
  exec.begin_replay(session, modeled_breakdown_, stream_count());
  replay_exec_ = &exec;
  replay_session_ = &session;
  graph_mode_ = GraphMode::kReplaying;
}

bool Device::end_replay() {
  FASTPSO_CHECK_MSG(graph_mode_ == GraphMode::kReplaying,
                    "end_replay without begin_replay");
  const bool clean = replay_exec_->end_replay(*replay_session_);
  replay_exec_ = nullptr;
  replay_session_ = nullptr;
  graph_mode_ = GraphMode::kOff;
  return clean;
}

void Device::detach_replay() {
  FASTPSO_CHECK_MSG(graph_mode_ == GraphMode::kReplaying,
                    "detach_replay without an open replay");
  replay_exec_ = nullptr;
  replay_session_ = nullptr;
  last_replay_node_ = -1;
  graph_mode_ = GraphMode::kOff;
}

void Device::attach_replay(graph::GraphExec& exec,
                           graph::GraphExec::ReplaySession& session) {
  FASTPSO_CHECK_MSG(graph_mode_ == GraphMode::kOff,
                    "attach_replay during an open capture/replay");
  FASTPSO_CHECK_MSG(session.open, "attach_replay on a closed session");
  replay_exec_ = &exec;
  replay_session_ = &session;
  graph_mode_ = GraphMode::kReplaying;
}

void Device::replay_node(const graph::GraphExec::ExecNode& en) {
  const graph::Node& node = en.node;
  switch (node.kind) {
    case graph::NodeKind::kKernel: {
      ++counters_.launches;
      counters_.barriers += static_cast<std::uint64_t>(node.cost.barriers);
      counters_.flops += node.cost.flops;
      counters_.transcendentals += node.cost.transcendentals;
      counters_.dram_read_useful += node.cost.dram_read_bytes;
      counters_.dram_write_useful += node.cost.dram_write_bytes;
      counters_.dram_read_fetched += node.cost.fetched_read_bytes();
      counters_.dram_write_fetched += node.cost.fetched_write_bytes();
      double t_compute = 0;
      double t_memory = 0;
      const double seconds = perf_.kernel_seconds_resolved(
          en.shape, node.cost, &t_compute, &t_memory);
      counters_.kernel_seconds += seconds;
      if (prof::active()) [[unlikely]] {
        prof_record_kernel_replay(
            node.grid, node.block, node.stream, node.phase,
            node.label.empty() ? nullptr : node.label.c_str(), node.cost,
            seconds, en.shape.compute_occupancy,
            en.shape.memory_occupancy, t_memory > t_compute);
      }
      counters_.modeled_seconds += seconds;
      *en.slot += seconds;
      stream_clock_[node.stream] += seconds;
      if (en.compiled) {
        // Registered span over the full element domain: the same element()
        // code the captured body loops over, statically bound
        // (vgpu/graph/codegen.h) — bitwise-identical output, no
        // std::function indirection.
        const graph::codegen::StaticKernel& k = node.static_kernel;
        if (prof::active()) [[unlikely]] {
          Stopwatch wall;
          k.span(k.args.get(), 0, node.elems);
          prof_note_wall(wall.elapsed_s());
        } else {
          k.span(k.args.get(), 0, node.elems);
        }
      } else if (node.body) {
        if (prof::active()) [[unlikely]] {
          Stopwatch wall;
          node.body();
          prof_note_wall(wall.elapsed_s());
        } else {
          node.body();
        }
      }
      break;
    }
    case graph::NodeKind::kMemcpyH2D:
    case graph::NodeKind::kMemcpyD2H:
    case graph::NodeKind::kMemcpyD2D: {
      // Memcpys replay through the eager entry points (they are
      // device-synchronizing, so there is no setup to amortize); restore
      // the captured phase first so attribution matches.
      if (phase_ != node.phase) {
        set_phase(node.phase);
      }
      const auto bytes = static_cast<std::size_t>(node.bytes);
      if (node.kind == graph::NodeKind::kMemcpyH2D) {
        memcpy_h2d(node.dst, node.src, bytes);
      } else if (node.kind == graph::NodeKind::kMemcpyD2H) {
        memcpy_d2h(node.dst, node.src, bytes);
      } else {
        memcpy_d2d(node.dst, node.src, bytes);
      }
      break;
    }
  }
}

void Device::replay_graph(graph::GraphExec& exec) {
  FASTPSO_CHECK_MSG(graph_mode_ == GraphMode::kOff,
                    "replay_graph during an open capture/replay");
  exec.begin_standalone(modeled_breakdown_, stream_count());
  for (const graph::GraphExec::ExecNode& en : exec.nodes()) {
    replay_node(en);
  }
  exec.end_standalone();
}

void Device::replay_fused(graph::GraphExec& exec) {
  if (exec.fused_groups().empty()) {
    // Nothing fused (pass not applied, or no legal group): the fused
    // schedule IS the plain schedule.
    replay_graph(exec);
    return;
  }
  FASTPSO_CHECK_MSG(graph_mode_ == GraphMode::kOff,
                    "replay_fused during an open capture/replay");
  exec.begin_standalone(modeled_breakdown_, stream_count());
  const std::vector<graph::GraphExec::ExecNode>& nodes = exec.nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const graph::GraphExec::ExecNode& en = nodes[i];
    if (en.fuse_group < 0) {
      replay_node(en);
      continue;
    }
    const graph::GraphExec::FusedGroup& g =
        exec.fused_groups()[static_cast<std::size_t>(en.fuse_group)];
    if (static_cast<int>(i) != g.members.front()) {
      continue;  // non-leading members are absorbed into the group dispatch
    }
    // One launch, priced at the merged (elided) cost spec: counters and
    // clocks genuinely reflect the fused schedule here, unlike paired
    // replay where fusion is reporting-only.
    ++counters_.launches;
    counters_.flops += g.merged_cost.flops;
    counters_.transcendentals += g.merged_cost.transcendentals;
    counters_.dram_read_useful += g.merged_cost.dram_read_bytes;
    counters_.dram_write_useful += g.merged_cost.dram_write_bytes;
    counters_.dram_read_fetched += g.merged_cost.fetched_read_bytes();
    counters_.dram_write_fetched += g.merged_cost.fetched_write_bytes();
    double t_compute = 0;
    double t_memory = 0;
    const double seconds = perf_.kernel_seconds_resolved(
        g.shape, g.merged_cost, &t_compute, &t_memory);
    counters_.kernel_seconds += seconds;
    if (prof::active()) [[unlikely]] {
      prof_record_kernel_replay(g.grid, g.block, g.stream, g.phase,
                                g.label.c_str(), g.merged_cost, seconds,
                                g.shape.compute_occupancy,
                                g.shape.memory_occupancy,
                                t_memory > t_compute);
    }
    counters_.modeled_seconds += seconds;
    *en.slot += seconds;
    stream_clock_[g.stream] += seconds;
    // Execute the member kernels back-to-back per element — the order that
    // makes aligned same-element dependences (and therefore the numerics)
    // identical to eager execution. Three tiers (vgpu/graph/codegen.h),
    // all member-order-preserving and therefore bitwise-equivalent:
    //   composed   one fully-inlined loop running every member per element
    //   chunked    registered member spans in order over ~kChunk windows
    //   interpreted the per-element elem_body fallback
    if (!g.member_spans.empty()) {
      exec.note_compiled_dispatch(g.composed != nullptr);
      Stopwatch wall;
      if (g.composed != nullptr) {
        g.composed(g.member_args.data(), 0, g.elems);
      } else {
        for (std::int64_t c = 0; c < g.elems;
             c += graph::codegen::kChunk) {
          const std::int64_t end =
              std::min(g.elems, c + graph::codegen::kChunk);
          for (std::size_t m = 0; m < g.member_spans.size(); ++m) {
            g.member_spans[m](g.member_args[m], c, end);
          }
        }
      }
      if (prof::active()) [[unlikely]] {
        prof_note_wall(wall.elapsed_s());
      }
    } else {
      bool have_bodies = false;
      for (int m : g.members) {
        if (nodes[static_cast<std::size_t>(m)].node.elem_body) {
          have_bodies = true;
          break;
        }
      }
      if (have_bodies) {
        Stopwatch wall;
        for (std::int64_t e = 0; e < g.elems; ++e) {
          for (int m : g.members) {
            const graph::Node& member =
                nodes[static_cast<std::size_t>(m)].node;
            if (member.elem_body) {
              member.elem_body(e);
            }
          }
        }
        if (prof::active()) [[unlikely]] {
          prof_note_wall(wall.elapsed_s());
        }
      }
    }
  }
  exec.end_standalone_fused();
}

prof::Profile Device::take_profile() {
  if (!profile_) {
    return prof::Profile{};
  }
  prof::Profile out = std::move(*profile_);
  profile_.reset();
  return out;
}

void Device::prof_record_kernel(const LaunchConfig& cfg,
                                const KernelCostSpec& cost, double seconds) {
  if (!profile_) {
    profile_ = std::make_unique<prof::Profile>();
  }
  prof::Event e;
  e.kind = prof::EventKind::kKernel;
  const char* label = prof::detail::current_label();
  e.label = label != nullptr ? label : "<unlabeled>";
  e.phase = phase_;
  e.stream = current_stream_;
  e.grid = cfg.grid;
  e.block = cfg.block;
  e.cost = cost;
  e.t_begin = stream_clock_[current_stream_];
  e.modeled_seconds = seconds;
  const KernelTimeDetail detail =
      perf_.kernel_detail(static_cast<double>(cfg.total_threads()), cost);
  e.compute_occupancy = detail.compute_occupancy;
  e.memory_occupancy = detail.memory_occupancy;
  e.limiter =
      detail.memory_bound() ? prof::Limiter::kMemory : prof::Limiter::kCompute;
  profile_->events.push_back(std::move(e));
}

void Device::prof_record_kernel_replay(std::int64_t grid, int block,
                                       int stream, const std::string& phase,
                                       const char* label,
                                       const KernelCostSpec& cost,
                                       double seconds,
                                       double compute_occupancy,
                                       double memory_occupancy,
                                       bool memory_bound) {
  if (!profile_) {
    profile_ = std::make_unique<prof::Profile>();
  }
  prof::Event e;
  e.kind = prof::EventKind::kKernel;
  e.label = label != nullptr ? label : "<unlabeled>";
  e.phase = phase;
  e.stream = stream;
  e.grid = grid;
  e.block = block;
  e.cost = cost;
  e.t_begin = stream_clock_[stream];
  e.modeled_seconds = seconds;
  e.compute_occupancy = compute_occupancy;
  e.memory_occupancy = memory_occupancy;
  e.limiter =
      memory_bound ? prof::Limiter::kMemory : prof::Limiter::kCompute;
  profile_->events.push_back(std::move(e));
}

void Device::prof_record_packed(const char* label, const LaunchConfig& cfg,
                                int jobs, double modeled_seconds) {
  if (!profile_) {
    profile_ = std::make_unique<prof::Profile>();
  }
  prof::Event e;
  e.kind = prof::EventKind::kKernel;
  e.label = "pack[k=" + std::to_string(jobs) + "]:" +
            (label != nullptr ? label : "<unlabeled>");
  e.phase = phase_;
  e.stream = current_stream_;
  e.grid = cfg.grid;
  e.block = cfg.block;
  // Decoration only: the member launches already advanced their jobs'
  // clocks, so the cohort event carries the packed pricing without moving
  // any clock or counter.
  e.t_begin = stream_clock_[current_stream_];
  e.modeled_seconds = modeled_seconds;
  profile_->events.push_back(std::move(e));
}

void Device::prof_record_op(prof::EventKind kind, double bytes, double seconds,
                            double wall_seconds) {
  if (!profile_) {
    profile_ = std::make_unique<prof::Profile>();
  }
  prof::Event e;
  e.kind = kind;
  e.label = prof::to_string(kind);
  e.phase = phase_;
  e.stream = current_stream_;
  e.bytes = bytes;
  // Device-wide ops start where the furthest stream stands (they sync all
  // clocks to max + seconds in add_modeled).
  e.t_begin = *std::max_element(stream_clock_.begin(), stream_clock_.end());
  e.modeled_seconds = seconds;
  e.wall_seconds = wall_seconds;
  profile_->events.push_back(std::move(e));
}

void Device::prof_note_wall(double seconds) {
  // The just-accounted kernel is the last event; kernel bodies perform no
  // device operations, so nothing can have been appended since.
  if (profile_ && !profile_->events.empty()) {
    profile_->events.back().wall_seconds += seconds;
  }
}

void Device::add_modeled(double seconds, bool device_wide) {
  counters_.modeled_seconds += seconds;
  modeled_breakdown_.add(phase_, seconds);
  if (device_wide) {
    // Synchronizing operation: align all streams, then advance together.
    const double now =
        *std::max_element(stream_clock_.begin(), stream_clock_.end()) +
        seconds;
    stream_clock_.assign(stream_clock_.size(), now);
  } else {
    stream_clock_[current_stream_] += seconds;
  }
}

}  // namespace fastpso::vgpu
