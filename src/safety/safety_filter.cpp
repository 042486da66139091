#include "safety/safety_filter.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/expect.hpp"

namespace seo {

SafetyFilter::SafetyFilter(SafetyFilterConfig config, BicycleModel model,
                           Barrier barrier, std::optional<Road> road)
    : config_(config),
      model_(std::move(model)),
      barrier_(barrier),
      road_(std::move(road)) {
  SEO_EXPECT(config_.horizon_s > 0.0);
  SEO_EXPECT(config_.step_s > 0.0 && config_.step_s <= config_.horizon_s);
  SEO_EXPECT(config_.steering_candidates >= 3);
  SEO_EXPECT(config_.off_road_penalty >= 0.0);
  steps_ = static_cast<int>(std::ceil(config_.horizon_s / config_.step_s));
  const std::size_t count =
      static_cast<std::size_t>(config_.steering_candidates) *
      (config_.brake_assist ? 2 : 1);
  candidates_.resize(count);
  frontier_.reserve(count);
}

double SafetyFilter::score(const Candidate& c) const {
  // Prefer higher safety; keep corrections on the road; tie-break toward
  // the raw steering request so corrections are minimally invasive.
  return c.min_h - config_.off_road_penalty * c.road_violation -
         c.steer_cost - c.brake_cost;
}

void SafetyFilter::advance(Candidate& c, const ObstacleField& field) const {
  // The candidate is held for the whole horizon: clamp and slip-angle
  // evaluate once, each Euler step reuses them (bit-identical stepping).
  if (c.steps == 0) c.held = model_.hold(c.control);
  c.state = model_.step_euler(c.state, c.held, config_.step_s);
  c.min_h = barrier_.value(c.state, field, c.min_h);
  if (road_) {
    const double margin = road_->boundary_margin(c.state.position);
    if (margin < 0.0) c.road_violation = std::max(c.road_violation, -margin);
  }
  ++c.steps;
  c.bound = score(c);
}

double SafetyFilter::margin_eff(const VehicleState& state) const {
  return config_.engage_margin *
         std::clamp(state.speed / config_.speed_ref,
                    config_.min_margin_factor, 1.0);
}

bool SafetyFilter::certifies_pass(const VehicleState& state,
                                  const ObstacleField& field,
                                  const Control& raw) const {
  return barrier_
             .value_and_floor(state, field,
                              model_.reach(state, model_.clamp(raw), steps_,
                                           config_.step_s))
             .floor >= margin_eff(state);
}

FilterDecision SafetyFilter::filter(const VehicleState& state,
                                    const ObstacleField& field,
                                    const Control& raw) const {
  FilterDecision decision;
  decision.control = model_.clamp(raw);
  const double margin = margin_eff(state);
  const Barrier::ValueAndFloor now = barrier_.value_and_floor(
      state, field,
      model_.reach(state, decision.control, steps_, config_.step_s));
  decision.h_now = now.value;
  // Pass certificate: every state the raw rollout can reach, the start
  // included, has h >= floor >= margin — the rollout would pass.
  if (now.floor >= margin) return decision;

  // Raw rollout: min h never rises, so once it is below the margin the
  // call engages whatever the remaining steps would add.
  {
    const HeldControl held = model_.hold(decision.control);
    VehicleState s = state;
    double min_h = decision.h_now;
    for (int i = 0; i < steps_ && !(min_h < margin); ++i) {
      s = model_.step_euler(s, held, config_.step_s);
      min_h = barrier_.value(s, field, min_h);
    }
    if (min_h >= margin) return decision;  // S = 1 and staying safe.
  }

  // psi(x; U): search the admissible steering grid (optionally with brake
  // assistance) for the action maximizing the worst-case barrier value.
  ++engagements_;
  decision.engaged = true;

  const double max_steer = model_.params().max_steer;
  const int n = config_.steering_candidates;
  const std::size_t per_steer = config_.brake_assist ? 2 : 1;
  // A bound that is NaN or -inf can never become a score that wins (the
  // exhaustive search keeps only scores > -inf), so such candidates drop.
  const auto live = [](const Candidate& c) {
    return c.bound > -std::numeric_limits<double>::infinity();
  };
  frontier_.clear();
  for (int i = 0; i < n; ++i) {
    const double steer =
        -max_steer + 2.0 * max_steer * static_cast<double>(i) /
                         static_cast<double>(n - 1);
    const double steer_cost = 1e-3 * std::abs(steer - raw.steering);
    for (std::size_t brake = 0; brake < per_steer; ++brake) {
      const std::size_t k = static_cast<std::size_t>(i) * per_steer + brake;
      Candidate& c = candidates_[k];
      c.control.steering = steer;
      c.control.throttle =
          brake == 0 ? decision.control.throttle : config_.brake_throttle;
      c.state = state;
      c.min_h = decision.h_now;
      c.road_violation = 0.0;
      c.steer_cost = steer_cost;
      c.brake_cost = brake == 1 ? 1e-4 : 0.0;
      c.steps = 0;
      c.bound = score(c);
      if (live(c)) frontier_.push_back(k);
    }
  }

  // Max-heap on (bound, -index): the top is the most promising candidate,
  // the lowest grid index among equal bounds — the exhaustive loop's
  // first-strictly-best rule.  Bounds of live candidates are never NaN, so
  // this is a strict weak order.
  const auto below = [this](std::size_t a, std::size_t b) {
    const double ba = candidates_[a].bound;
    const double bb = candidates_[b].bound;
    return ba < bb || (ba == bb && a > b);
  };
  std::make_heap(frontier_.begin(), frontier_.end(), below);
  while (!frontier_.empty()) {
    std::pop_heap(frontier_.begin(), frontier_.end(), below);
    const std::size_t k = frontier_.back();
    Candidate& c = candidates_[k];
    if (c.steps == steps_) {
      // Complete and on top: its exact score is >= every other bound.
      decision.control = c.control;
      break;
    }
    advance(c, field);  // still at the back: re-sift or drop it
    if (live(c))
      std::push_heap(frontier_.begin(), frontier_.end(), below);
    else
      frontier_.pop_back();
  }
  return decision;
}

}  // namespace seo
