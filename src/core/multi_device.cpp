#include "core/multi_device.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/check.h"
#include "common/stopwatch.h"
#include "core/best_update.h"
#include "core/eval_schema.h"
#include "core/init.h"
#include "core/launch_policy.h"
#include "core/swarm_state.h"
#include "core/swarm_update.h"
#include "vgpu/memory_pool.h"
#include "vgpu/prof/prof.h"

namespace fastpso::core {
namespace {

namespace comm = vgpu::comm;

/// Per-device working set. The weight buffers are hoisted out of the
/// iteration loop: DeviceArray allocation is a device-wide synchronizing
/// operation (it aligns every stream clock), and a per-iteration alloc
/// would serialize the comm stream against compute and erase the
/// compute/collective overlap this optimizer exists to model.
struct Shard {
  Shard(vgpu::Device& dev, const vgpu::GpuSpec& spec, int count, int dim)
      : device(&dev),
        policy(spec),
        state(dev, count, dim),
        l_mat(dev, state.elements()),
        g_mat(dev, state.elements()) {}

  vgpu::Device* device;
  LaunchPolicy policy;
  SwarmState state;
  vgpu::DeviceArray<float> l_mat;
  vgpu::DeviceArray<float> g_mat;
  int begin = 0;  ///< first owned particle row (global index)
};

/// Rows assigned to shard k of `devices` over n particles: contiguous and
/// ascending, which the tile-matrix tie-break equivalence with the
/// single-device argmin depends on.
std::pair<int, int> shard_rows(int n, int devices, int k) {
  const int base = n / devices;
  const int extra = n % devices;
  const int begin = k * base + std::min(k, extra);
  const int count = base + (k < extra ? 1 : 0);
  return {begin, count};
}

}  // namespace

const char* to_string(MultiGpuStrategy strategy) {
  switch (strategy) {
    case MultiGpuStrategy::kParticleSplit:
      return "particle-split";
    case MultiGpuStrategy::kTileMatrix:
      return "tile-matrix";
  }
  FASTPSO_UNREACHABLE("unknown multi-GPU strategy");
}

MultiDeviceOptimizer::MultiDeviceOptimizer(MultiDeviceParams params,
                                           vgpu::GpuSpec spec)
    : params_(std::move(params)), spec_(std::move(spec)) {
  const PsoParams& pso = params_.pso;
  pso.validate();
  FASTPSO_CHECK_MSG(params_.devices >= 1, "need at least one device");
  FASTPSO_CHECK_MSG(pso.particles >= params_.devices,
                    "fewer particles than devices");
  FASTPSO_CHECK_MSG(params_.sync_interval >= 1, "sync interval must be >= 1");
  FASTPSO_CHECK_MSG(pso.topology == Topology::kGlobal,
                    "multi-device runs support topology=global only");
  FASTPSO_CHECK_MSG(pso.synchronization == Synchronization::kSynchronous,
                    "multi-device runs support synchronization=sync only");
  FASTPSO_CHECK_MSG(!pso.overlap_init,
                    "multi-device runs do not support overlap_init");
  FASTPSO_CHECK_MSG(
      pso.target_value == -std::numeric_limits<double>::infinity(),
      "multi-device runs do not support early stop (target_value)");
  FASTPSO_CHECK_MSG(
      pso.stall_patience <= 0,
      "multi-device runs do not support early stop (stall_patience)");
}

Result MultiDeviceOptimizer::optimize(const Objective& objective) {
  group_ = std::make_unique<comm::DeviceGroup>(params_.devices, spec_);
  comm_ = std::make_unique<comm::Communicator>(*group_);
  Result result;
  switch (params_.strategy) {
    case MultiGpuStrategy::kTileMatrix:
      result = optimize_tile_matrix(objective);
      break;
    case MultiGpuStrategy::kParticleSplit:
      result = optimize_particle_split(objective);
      break;
  }
  // Bookkeeping shared by both strategies.
  device_seconds_.clear();
  comm_seconds_.clear();
  double max_device = 0.0;
  for (int k = 0; k < params_.devices; ++k) {
    const vgpu::Device& dev = group_->device(k);
    device_seconds_.push_back(dev.modeled_seconds());
    max_device = std::max(max_device, dev.modeled_seconds());
    comm_seconds_.push_back(comm_->comm_seconds(k));
    // Cross-check the two comm accountings (communicator vs device).
    FASTPSO_CHECK(std::abs(dev.counters().comm_seconds -
                           comm_->comm_seconds(k)) <= 1e-12);
    result.modeled_breakdown.merge(dev.modeled_breakdown());
    const auto& c = dev.counters();
    result.counters.flops += c.flops;
    result.counters.dram_read_fetched += c.dram_read_fetched;
    result.counters.dram_write_fetched += c.dram_write_fetched;
    result.counters.launches += c.launches;
    result.counters.collectives += c.collectives;
    result.counters.comm_bytes += c.comm_bytes;
    result.counters.comm_seconds += c.comm_seconds;
  }
  collectives_ = comm_->records();
  result.modeled_seconds = max_device;
  // Collective time lives inside the per-device comm streams, so the run's
  // modeled time IS the slowest device — no separate exchange term.
  FASTPSO_CHECK(!device_seconds_.empty() &&
                result.modeled_seconds ==
                    *std::max_element(device_seconds_.begin(),
                                      device_seconds_.end()));
  return result;
}

Result MultiDeviceOptimizer::optimize_tile_matrix(const Objective& objective) {
  const PsoParams& pso = params_.pso;
  const int n = pso.particles;
  const int d = pso.dim;
  const int devices = params_.devices;

  const UpdateCoefficients coeff =
      make_coefficients(pso, objective.lower, objective.upper);
  const float v_init =
      coeff.vmax > 0.0f
          ? coeff.vmax
          : static_cast<float>(objective.upper - objective.lower);

  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(devices);
  for (int k = 0; k < devices; ++k) {
    vgpu::Device& dev = group_->device(k);
    const auto [begin, count] = shard_rows(n, devices, k);
    dev.pool().set_enabled(pso.memory_caching);
    dev.set_phase("init");
    auto shard = std::make_unique<Shard>(dev, spec_, count, d);
    shard->begin = begin;
    initialize_swarm_slice(dev, shard->policy, shard->state, pso.seed,
                           static_cast<std::int64_t>(begin) * d,
                           static_cast<float>(objective.lower),
                           static_cast<float>(objective.upper), v_init);
    shards.push_back(std::move(shard));
  }

  Stopwatch watch;
  float gbest = std::numeric_limits<float>::infinity();
  std::vector<float> history;
  history.reserve(static_cast<std::size_t>(pso.max_iter));
  std::vector<float> values(static_cast<std::size_t>(devices));
  std::vector<float*> gbest_bufs(static_cast<std::size_t>(devices));

  for (int iter = 0; iter < pso.max_iter; ++iter) {
    for (auto& shard : shards) {
      vgpu::Device& dev = *shard->device;
      SwarmState& state = shard->state;
      dev.set_phase("eval");
      {
        vgpu::prof::KernelLabel label("eval/objective");
        evaluate_positions(dev, shard->policy.for_particles(state.n).config,
                           objective, state.positions.data(), state.n, d,
                           eval_cost(objective, state.n, d),
                           state.perror.data());
      }
      dev.set_phase("pbest");
      update_pbest(dev, shard->policy, state);
      dev.set_phase("gbest");
      update_gbest(dev, state);
    }

    // Complete the gbest reduction across shards: an (err, rank) allreduce
    // picks the winner (ties -> lowest rank == lowest particle index, the
    // single-device argmin tie-break), then the winning row is ring-
    // broadcast into every shard's gbest buffer. Both run on the per-device
    // comm streams.
    for (int k = 0; k < devices; ++k) {
      values[static_cast<std::size_t>(k)] = shards[k]->state.gbest_err;
      gbest_bufs[static_cast<std::size_t>(k)] =
          shards[k]->state.gbest_pos.data();
    }
    const int winner = comm_->allreduce_minloc(values);
    gbest = values[static_cast<std::size_t>(winner)];
    comm_->broadcast(winner, gbest_bufs, d);
    for (auto& shard : shards) {
      shard->state.gbest_err = gbest;
    }

    // Weight fills are gbest-independent, so they issue on stream 0 while
    // the collective occupies the comm stream — the overlap the per-device
    // traces show. The join below orders the swarm update after both.
    for (auto& shard : shards) {
      shard->device->set_phase("init");
      generate_weights_slice(*shard->device, shard->policy,
                             static_cast<std::int64_t>(shard->begin) * d,
                             shard->state.elements(), pso.seed, iter,
                             shard->l_mat, shard->g_mat);
      shard->device->sync_streams();
      shard->device->set_phase("swarm");
      swarm_update(*shard->device, shard->policy, shard->state, shard->l_mat,
                   shard->g_mat, coefficients_for_iter(coeff, pso, iter),
                   pso.technique);
    }
    history.push_back(gbest);
  }

  Result result;
  result.gbest_value = gbest;
  result.gbest_position.resize(static_cast<std::size_t>(d));
  shards[0]->state.gbest_pos.download(result.gbest_position);
  result.iterations = pso.max_iter;
  result.gbest_history = std::move(history);
  result.wall_seconds = watch.elapsed_s();
  return result;
}

Result MultiDeviceOptimizer::optimize_particle_split(
    const Objective& objective) {
  // Sub-swarm semantics: per-shard seeds, local global bests, and the
  // guarded adopt at each exchange (a rank whose local best ties the group
  // best keeps its own position — a plain broadcast would overwrite it, so
  // the exchange's data plane runs here and only its cost goes through the
  // communicator).
  const PsoParams& pso = params_.pso;
  const int n = pso.particles;
  const int d = pso.dim;
  const int devices = params_.devices;

  const UpdateCoefficients coeff =
      make_coefficients(pso, objective.lower, objective.upper);
  const float v_init =
      coeff.vmax > 0.0f
          ? coeff.vmax
          : static_cast<float>(objective.upper - objective.lower);

  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(devices);
  for (int k = 0; k < devices; ++k) {
    vgpu::Device& dev = group_->device(k);
    const auto [begin, count] = shard_rows(n, devices, k);
    dev.pool().set_enabled(pso.memory_caching);
    dev.set_phase("init");
    auto shard = std::make_unique<Shard>(dev, spec_, count, d);
    shard->begin = begin;
    initialize_swarm(dev, shard->policy, shard->state,
                     pso.seed + static_cast<std::uint64_t>(begin) * 2654435761u,
                     static_cast<float>(objective.lower),
                     static_cast<float>(objective.upper), v_init);
    shards.push_back(std::move(shard));
  }

  Stopwatch watch;
  float group_best = std::numeric_limits<float>::infinity();
  std::vector<float> group_best_pos(static_cast<std::size_t>(d), 0.0f);
  std::vector<float> history;
  history.reserve(static_cast<std::size_t>(pso.max_iter));

  for (int iter = 0; iter < pso.max_iter; ++iter) {
    for (int k = 0; k < devices; ++k) {
      auto& shard = *shards[k];
      vgpu::Device& dev = *shard.device;
      SwarmState& state = shard.state;
      dev.set_phase("init");
      generate_weights(dev, shard.policy, state.elements(),
                       pso.seed + 15485863u * static_cast<std::uint64_t>(k),
                       iter, shard.l_mat, shard.g_mat);
      dev.set_phase("eval");
      {
        vgpu::prof::KernelLabel label("eval/objective");
        evaluate_positions(dev, shard.policy.for_particles(state.n).config,
                           objective, state.positions.data(), state.n, d,
                           eval_cost(objective, state.n, d),
                           state.perror.data());
      }
      dev.set_phase("pbest");
      update_pbest(dev, shard.policy, state);
      dev.set_phase("gbest");
      update_gbest(dev, state);
      dev.set_phase("swarm");
      swarm_update(dev, shard.policy, state, shard.l_mat, shard.g_mat,
                   coefficients_for_iter(coeff, pso, iter), pso.technique);
    }

    // Group-best exchange at the configured cadence.
    if ((iter + 1) % params_.sync_interval == 0 || iter + 1 == pso.max_iter) {
      int best_shard = -1;
      for (int k = 0; k < devices; ++k) {
        if (shards[k]->state.gbest_err < group_best) {
          group_best = shards[k]->state.gbest_err;
          best_shard = k;
        }
      }
      if (best_shard >= 0) {
        std::memcpy(group_best_pos.data(),
                    shards[best_shard]->state.gbest_pos.data(),
                    static_cast<std::size_t>(d) * sizeof(float));
      }
      for (auto& shard : shards) {
        if (group_best < shard->state.gbest_err) {
          shard->state.gbest_err = group_best;
          std::memcpy(shard->state.gbest_pos.data(), group_best_pos.data(),
                      static_cast<std::size_t>(d) * sizeof(float));
        }
      }
      comm_->account_collective("allreduce_minloc",
                                comm::allreduce_cost(devices, 8.0));
      comm_->account_collective("broadcast",
                                comm::broadcast_cost(devices, d * 4.0));
    }
    // Observational trajectory: the best value any shard holds after this
    // iteration (pure reporting).
    float best_seen = group_best;
    for (auto& shard : shards) {
      best_seen = std::min(best_seen, shard->state.gbest_err);
    }
    history.push_back(best_seen);
  }

  Result result;
  result.gbest_value = group_best;
  result.gbest_position = group_best_pos;
  result.iterations = pso.max_iter;
  result.gbest_history = std::move(history);
  result.wall_seconds = watch.elapsed_s();
  return result;
}

}  // namespace fastpso::core
