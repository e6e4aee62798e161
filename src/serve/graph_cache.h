// Shape-keyed cache of instantiated execution graphs for the serve layer.
//
// The first job of a JobShape captures its iteration's launch sequence
// (Device::begin_capture over one JobRun::step) and the cache instantiates
// it once (Graph::instantiate). Every later same-shape job replays that one GraphExec regardless of which
// stream it was assigned: GraphExec::set_replay_stream retargets the
// positional matching, which is legal because a scheduled job issues all
// its launches on its single assigned stream. Replay accounting is
// byte-identical to eager accounting (vgpu/graph contract), so reusing a
// graph across jobs never changes any job's numbers — it only earns the
// reported amortization credit.
//
// A shape whose replay diverges is poisoned: all its jobs run eagerly from
// then on. Divergence cannot corrupt results (the diverging launch falls
// through to eager accounting mid-replay), it only forfeits the credit.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "serve/job.h"
#include "vgpu/graph/graph.h"

namespace fastpso::vgpu {
class Device;
}

namespace fastpso::serve {

class GraphCache {
 public:
  /// What one bracketed job iteration did. The scheduler passes the value
  /// returned by begin_iteration back into end_iteration.
  enum class IterationMode : std::uint8_t { kEager, kCapture, kReplay };

  explicit GraphCache(vgpu::Device& device);

  GraphCache(const GraphCache&) = delete;
  GraphCache& operator=(const GraphCache&) = delete;

  /// Opens the capture or replay bracket for one iteration of a job of
  /// `shape` running on `stream`. kReplay when the shape has a cached exec,
  /// kCapture for the first iteration of a new shape, kEager for poisoned
  /// shapes. Call JobRun::step() next, then end_iteration.
  IterationMode begin_iteration(const JobShape& shape, int stream);

  /// Closes the bracket opened by begin_iteration. kCapture: instantiates
  /// the recorded graph. kReplay: finishes the
  /// replay; a diverged replay poisons the shape. Returns false when the
  /// iteration poisoned its shape.
  bool end_iteration(const JobShape& shape, IterationMode mode);

  /// Instantiated exec for `shape`, or nullptr (unknown / not yet captured
  /// / poisoned). The batcher prices packing cohorts from its node list.
  [[nodiscard]] const vgpu::graph::GraphExec* exec(const JobShape& shape)
      const;

  /// Mutable exec for the packed-cohort path (serve/packed.h), which opens
  /// a per-job ReplaySession on the shared exec instead of the exec-level
  /// begin_iteration bracket. Same nullptr contract as exec().
  [[nodiscard]] vgpu::graph::GraphExec* exec_mutable(const JobShape& shape);

  /// Poisons `shape` (forces eager from now on). The packed path drives
  /// replays through per-job sessions, so it reports divergence here
  /// rather than through end_iteration.
  void poison(const JobShape& shape);

  /// True when the next begin_iteration for `shape` would replay.
  [[nodiscard]] bool ready(const JobShape& shape) const {
    return exec(shape) != nullptr;
  }

  // -- aggregate bookkeeping over all entries (feeds ServeStats) ----------
  [[nodiscard]] std::uint64_t graphs_captured() const;
  [[nodiscard]] std::uint64_t graphs_poisoned() const;
  [[nodiscard]] double graph_seconds_saved() const;

 private:
  struct Entry {
    vgpu::graph::Graph graph;
    std::unique_ptr<vgpu::graph::GraphExec> exec;
    bool poisoned = false;
  };

  vgpu::Device& device_;
  std::map<JobShape, Entry> entries_;
};

}  // namespace fastpso::serve
