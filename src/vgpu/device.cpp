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
  ++counters_->allocs;
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
  ++counters_->frees;
  const double seconds = perf_.free_seconds();
  if (prof::active()) [[unlikely]] {
    prof_record_op(prof::EventKind::kFree, bytes, seconds, 0.0);
  }
  add_modeled(seconds);
}

void Device::memcpy_h2d(void* dst, const void* src, std::size_t bytes) {
  pack_flush_lane();
  if (graph_mode_ == GraphMode::kCapturing) [[unlikely]] {
    capture_graph_->record_memcpy(graph::NodeKind::kMemcpyH2D,
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
  ++counters_->transfers;
  counters_->h2d_bytes += static_cast<double>(bytes);
  add_modeled(seconds);
}

void Device::memcpy_d2h(void* dst, const void* src, std::size_t bytes) {
  pack_flush_lane();
  if (graph_mode_ == GraphMode::kCapturing) [[unlikely]] {
    capture_graph_->record_memcpy(graph::NodeKind::kMemcpyD2H,
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
  ++counters_->transfers;
  counters_->d2h_bytes += static_cast<double>(bytes);
  add_modeled(seconds);
}

void Device::memcpy_d2d(void* dst, const void* src, std::size_t bytes) {
  pack_flush_lane();
  if (graph_mode_ == GraphMode::kCapturing) [[unlikely]] {
    capture_graph_->record_memcpy(graph::NodeKind::kMemcpyD2D,
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
  ++counters_->transfers;
  counters_->dram_read_useful += static_cast<double>(bytes);
  counters_->dram_write_useful += static_cast<double>(bytes);
  counters_->dram_read_fetched += static_cast<double>(bytes);
  counters_->dram_write_fetched += static_cast<double>(bytes);
  add_modeled(seconds);
}

void Device::bind_accounting(DeviceCounters& counters,
                             TimeBreakdown& breakdown) {
  FASTPSO_CHECK_MSG(graph_mode_ == GraphMode::kOff,
                    "bind_accounting during an open capture/replay");
  FASTPSO_CHECK_MSG(counters_ == &own_counters_,
                    "bind_accounting while already bound");
  counters_ = &counters;
  breakdown_ = &breakdown;
}

void Device::unbind_accounting() {
  FASTPSO_CHECK_MSG(graph_mode_ == GraphMode::kOff,
                    "unbind_accounting during an open capture/replay");
  FASTPSO_CHECK_MSG(counters_ != &own_counters_,
                    "unbind_accounting without a binding");
  counters_ = &own_counters_;
  breakdown_ = &own_breakdown_;
}

void Device::reset_counters() {
  *counters_ = DeviceCounters{};
  breakdown_->clear();
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
  ++counters_->collectives;
  counters_->comm_bytes += bytes;
  counters_->comm_seconds += seconds;
  if (prof::active()) [[unlikely]] {
    if (!profile_) {
      profile_ = std::make_unique<prof::Profile>();
    }
    prof::Event e;
    e.kind = prof::EventKind::kComm;
    e.label = label;
    e.phase = phase();
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
  ++counters_->launches;
  counters_->barriers += static_cast<std::uint64_t>(cost.barriers);
  counters_->flops += cost.flops;
  counters_->transcendentals += cost.transcendentals;
  counters_->dram_read_useful += cost.dram_read_bytes;
  counters_->dram_write_useful += cost.dram_write_bytes;
  counters_->dram_read_fetched += cost.fetched_read_bytes();
  counters_->dram_write_fetched += cost.fetched_write_bytes();
  const double seconds =
      perf_.kernel_seconds(static_cast<double>(cfg.total_threads()), cost);
  counters_->kernel_seconds += seconds;
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
  ++counters_->launches;
  counters_->barriers += static_cast<std::uint64_t>(cost.barriers);
  counters_->flops += cost.flops;
  counters_->transcendentals += cost.transcendentals;
  counters_->dram_read_useful += cost.dram_read_bytes;
  counters_->dram_write_useful += cost.dram_write_bytes;
  counters_->dram_read_fetched += cost.fetched_read_bytes();
  counters_->dram_write_fetched += cost.fetched_write_bytes();
  double t_compute = 0;
  double t_memory = 0;
  const double seconds =
      perf_.kernel_seconds_resolved(node->shape, cost, &t_compute, &t_memory);
  counters_->kernel_seconds += seconds;
  if (prof::active()) [[unlikely]] {
    prof_record_kernel_replay(cfg, cost, seconds,
                              node->shape.compute_occupancy,
                              node->shape.memory_occupancy,
                              t_memory > t_compute);
  }
  counters_->modeled_seconds += seconds;
  *replay_session_->slots[static_cast<std::size_t>(index)] += seconds;
  stream_clock_[current_stream_] += seconds;
  // Deferral key for pack_offer_range (vgpu/pack.h).
  last_replay_node_ = index;
  last_replay_seconds_ = seconds;
  return true;
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
  exec.begin_replay(session, *breakdown_, stream_count());
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
  const KernelTimeDetail detail =
      perf_.kernel_detail(static_cast<double>(cfg.total_threads()), cost);
  prof_record_kernel_replay(cfg, cost, seconds, detail.compute_occupancy,
                            detail.memory_occupancy, detail.memory_bound());
}

void Device::prof_record_kernel_replay(const LaunchConfig& cfg,
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
  const char* label = prof::detail::current_label();
  e.label = label != nullptr ? label : "<unlabeled>";
  e.phase = phase();
  e.stream = current_stream_;
  e.grid = cfg.grid;
  e.block = cfg.block;
  e.cost = cost;
  e.t_begin = stream_clock_[current_stream_];
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
  e.phase = phase();
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
  e.phase = phase();
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
  counters_->modeled_seconds += seconds;
  breakdown_->add(phase_, seconds);
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
