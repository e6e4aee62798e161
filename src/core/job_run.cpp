#include "core/job_run.h"

#include "common/check.h"
#include "core/best_update.h"
#include "core/eval_schema.h"
#include "core/init.h"
#include "core/neighborhood.h"
#include "vgpu/prof/prof.h"

namespace fastpso::core {

SwarmState JobRun::make_state(vgpu::Device& device, int n, int d) {
  device.set_phase(PhaseId::kInit);
  return SwarmState(device, n, d);
}

JobRun::JobRun(vgpu::Device& device, const PsoParams& params,
               const Objective& objective, Mode mode)
    : device_(device),
      params_(params),
      objective_(objective),
      mode_(mode),
      policy_(device.spec()),
      coeff_(make_coefficients(params, objective.lower, objective.upper)),
      // ---- Step (i): allocation + initialization ------------------------
      state_(make_state(device, params.particles, params.dim)),
      stop_(params) {
  params_.validate();
  FASTPSO_CHECK_MSG(params_.synchronization == Synchronization::kSynchronous,
                    "JobRun drives the synchronous pipeline only");
  FASTPSO_CHECK_MSG(static_cast<bool>(objective_.fn),
                    "objective has no evaluation function");
  FASTPSO_CHECK_MSG(objective_.upper > objective_.lower,
                    "objective domain is empty");

  const int n = params_.particles;
  const int d = params_.dim;
  // Velocity init range: the clamp bound when clamping, else the domain.
  const float v_init = coeff_.vmax > 0.0f
                           ? coeff_.vmax
                           : static_cast<float>(objective_.upper -
                                                objective_.lower);
  {
    ScopedTimer timer(wall_, PhaseId::kInit);
    initialize_swarm(device_, policy_, state_, params_.seed,
                     static_cast<float>(objective_.lower),
                     static_cast<float>(objective_.upper), v_init);
  }

  // Evaluation cost declaration, reused every iteration.
  eval_cost_ = eval_cost(objective_, n, d);

  positions_ = state_.positions.data();
  perror_ = state_.perror.data();

  if (params_.topology == Topology::kRing) {
    nbest_idx_ = vgpu::DeviceArray<std::int32_t>(device_, n);
  }

  // Overlapped pipeline: double-buffered weight matrices + a second
  // stream so Step (i) of iteration t+1 hides behind Steps (ii)-(iii) of
  // iteration t. Same Philox streams, so results are bit-identical.
  if (params_.overlap_init) {
    gen_stream_ = device_.create_stream();
    device_.set_phase(PhaseId::kInit);
    ScopedTimer timer(wall_, PhaseId::kInit);
    for (int b = 0; b < 2; ++b) {
      l_buf_[b] = vgpu::DeviceArray<float>(device_, state_.elements());
      g_buf_[b] = vgpu::DeviceArray<float>(device_, state_.elements());
    }
    generate_weights(device_, policy_, state_.elements(), params_.seed, 0,
                     l_buf_[0], g_buf_[0]);
  }
}

void JobRun::step() {
  step_front();
  step_middle();
  step_back();
}

void JobRun::step_front() {
  FASTPSO_CHECK_MSG(!done_ && !finished_, "step() on a completed run");
  const int iter = completed_;
  const int n = params_.particles;
  const int d = params_.dim;
  if (params_.overlap_init) {
    // ---- Step (i), overlapped: next iteration's weights on stream 1 ----
    if (iter + 1 < params_.max_iter) {
      ScopedTimer timer(wall_, PhaseId::kInit);
      device_.set_phase(PhaseId::kInit);
      device_.set_stream(gen_stream_);
      generate_weights(device_, policy_, state_.elements(), params_.seed,
                       iter + 1, l_buf_[(iter + 1) % 2],
                       g_buf_[(iter + 1) % 2]);
      device_.set_stream(0);
    }
  } else {
    // ---- Step (i) continued: per-iteration weight matrices -------------
    device_.set_phase(PhaseId::kInit);
    ScopedTimer timer(wall_, PhaseId::kInit);
    iter_l_ = vgpu::DeviceArray<float>(device_, state_.elements());
    iter_g_ = vgpu::DeviceArray<float>(device_, state_.elements());
    generate_weights(device_, policy_, state_.elements(), params_.seed,
                     iter, iter_l_, iter_g_);
  }

  // ---- Step (ii): evaluation through the kernel schema -----------------
  {
    vgpu::prof::Scope phase(device_, PhaseId::kEval);
    ScopedTimer timer(wall_, PhaseId::kEval);
    vgpu::prof::KernelLabel label("eval/objective");
    evaluate_positions(device_, policy_.for_particles(n).config, objective_,
                       positions_, n, d, eval_cost_, perror_);
  }

  // ---- Step (iii), pass 1: pbest compare -------------------------------
  {
    vgpu::prof::Scope phase(device_, PhaseId::kPbest);
    ScopedTimer timer(wall_, PhaseId::kPbest);
    update_pbest_compare(device_, policy_, state_);
  }
}

void JobRun::step_middle() {
  // ---- Step (iii), host read-back + pass 2: pbest gather ---------------
  // Same "pbest" phase as the compare pass; prof::Scope only sets the
  // phase, so two scopes account identically to the old single one.
  vgpu::prof::Scope phase(device_, PhaseId::kPbest);
  ScopedTimer timer(wall_, PhaseId::kPbest);
  update_pbest_finish(device_, policy_, state_);
}

void JobRun::step_back() {
  const int iter = completed_;
  {
    vgpu::prof::Scope phase(device_, PhaseId::kGbest);
    ScopedTimer timer(wall_, PhaseId::kGbest);
    update_gbest(device_, state_);
  }

  // ---- Step (iv): swarm update -----------------------------------------
  if (params_.overlap_init) {
    device_.sync_streams();  // the weights must have landed
  }
  vgpu::DeviceArray<float>& l_cur =
      params_.overlap_init ? l_buf_[iter % 2] : iter_l_;
  vgpu::DeviceArray<float>& g_cur =
      params_.overlap_init ? g_buf_[iter % 2] : iter_g_;
  // Plain set_phase, not a prof::Scope: "swarm" must persist past the
  // block so the end-of-iteration weight-matrix frees stay attributed to
  // it, exactly as before.
  device_.set_phase(PhaseId::kSwarm);
  {
    ScopedTimer timer(wall_, PhaseId::kSwarm);
    const UpdateCoefficients it_coeff =
        coefficients_for_iter(coeff_, params_, iter);
    if (params_.topology == Topology::kRing) {
      update_ring_nbest(device_, policy_, state_, params_.ring_neighbors,
                        nbest_idx_);
      swarm_update_ring(device_, policy_, state_, l_cur, g_cur, it_coeff,
                        nbest_idx_.data());
    } else {
      swarm_update(device_, policy_, state_, l_cur, g_cur, it_coeff,
                   params_.technique);
    }
  }

  completed_ = iter + 1;
  history_.push_back(state_.gbest_err);
  if (completed_ >= params_.max_iter || stop_.should_stop(state_.gbest_err)) {
    done_ = true;
  }
  // Free the per-iteration weights g then l — the order the old step()
  // locals' reverse destruction produced (phase is still "swarm").
  iter_g_.reset();
  iter_l_.reset();
}

Result JobRun::finish() {
  FASTPSO_CHECK_MSG(!finished_, "finish() called twice");
  finished_ = true;
  Result result;
  // Fetch the final answer from the device.
  device_.set_phase(PhaseId::kGbest);
  result.gbest_position.resize(params_.dim);
  state_.gbest_pos.download(result.gbest_position);
  result.gbest_value = state_.gbest_err;
  result.iterations = completed_;
  result.gbest_history = std::move(history_);
  result.wall_seconds = total_watch_.elapsed_s();
  result.wall_breakdown = wall_;
  result.modeled_breakdown = device_.modeled_breakdown();
  result.modeled_seconds = mode_ == Mode::kServe
                               ? device_.counters().modeled_seconds
                               : device_.modeled_seconds();
  result.counters = device_.counters();
  if (mode_ == Mode::kSolo) {
    result.profile = device_.take_profile();
  }
  return result;
}

std::vector<std::pair<const void*, std::size_t>> JobRun::buffer_spans()
    const {
  std::vector<std::pair<const void*, std::size_t>> spans;
  const auto note = [&spans](const void* base, std::size_t bytes) {
    if (base != nullptr && bytes > 0) {
      spans.emplace_back(base, bytes);
    }
  };
  note(state_.positions.data(), state_.positions.bytes());
  note(state_.velocities.data(), state_.velocities.bytes());
  note(state_.pbest_pos.data(), state_.pbest_pos.bytes());
  note(state_.pbest_err.data(), state_.pbest_err.bytes());
  note(state_.perror.data(), state_.perror.bytes());
  note(state_.improved.data(), state_.improved.bytes());
  note(state_.gbest_pos.data(), state_.gbest_pos.bytes());
  note(nbest_idx_.data(), nbest_idx_.bytes());
  note(iter_l_.data(), iter_l_.bytes());
  note(iter_g_.data(), iter_g_.bytes());
  for (int b = 0; b < 2; ++b) {
    note(l_buf_[b].data(), l_buf_[b].bytes());
    note(g_buf_[b].data(), g_buf_[b].bytes());
  }
  return spans;
}

}  // namespace fastpso::core
