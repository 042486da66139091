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

double SafetyFilter::reach(const VehicleState& state,
                           const Control& clamped) const {
  // Every Euler step of the raw rollout moves the vehicle by the speed v_j
  // it starts with times dt; write u = 2^-53 and N = steps_.
  //
  //  * v_0 is the start speed, of any sign or size.  Each step clamps the
  //    new speed into [0, max_speed], so 0 <= v_j <= max_speed for j >= 1.
  //  * With v_j >= 0 and drag >= 0 the step's acceleration is at most
  //    drive = fl(throttle * max_accel) (<= 0 when braking), so monotone
  //    rounding gives v_{j+1} <= min(max_speed, fl(v_j + a)) with
  //    a = fl(fl(max(0, throttle) * max_accel) * dt) — the very doubles the
  //    step forms.  From v_0 >= 0, by induction,
  //    v_j <= min(max_speed, (v_0 + j*a) * (1 + u)^j).  A negative start
  //    speed leaves only the clamp (its first step may add drag).
  //  * Summing (the sum of minima is at most the minimum of sums), the
  //    steps cover at most dt * (|v_0| + (N-1) * min(max_speed,
  //    v_0 + a*N/2)) * (1 + u)^N, or max_speed alone for v_0 < 0.  The displacement of a step rounds to
  //    within 5u of |v_j|*dt (two products; cos and sin within an ulp) and
  //    adding it to a coordinate rounds within u of that coordinate, which
  //    stays within |x_0| + |y_0| + 2 * reach.
  //
  // The relative slack N * 2^-40 is thousands of times those (3N + 10)u,
  // its own roundings included.  Non-finite inputs get no bound: NaN.
  const double x = state.position.x;
  const double y = state.position.y;
  const double v0 = state.speed;
  if (!std::isfinite(x) || !std::isfinite(y) || !std::isfinite(v0) ||
      !std::isfinite(state.heading) || !std::isfinite(clamped.steering) ||
      !std::isfinite(clamped.throttle))
    return std::numeric_limits<double>::quiet_NaN();
  const BicycleParams& p = model_.params();
  const double n = static_cast<double>(steps_);
  const double a =
      std::max(0.0, clamped.throttle) * p.max_accel * config_.step_s;
  const double mean_speed =
      v0 >= 0.0 ? std::min(p.max_speed, v0 + a * n * 0.5) : p.max_speed;
  const double path = config_.step_s * (std::abs(v0) + (n - 1.0) * mean_speed);
  return path + n * 0x1p-40 * (path + std::abs(x) + std::abs(y));
}

bool SafetyFilter::certifies_pass(const VehicleState& state,
                                  const ObstacleField& field,
                                  const Control& raw) const {
  return barrier_.value_and_floor(state, field, reach(state, model_.clamp(raw)))
             .floor >= margin_eff(state);
}

FilterDecision SafetyFilter::filter(const VehicleState& state,
                                    const ObstacleField& field,
                                    const Control& raw) const {
  FilterDecision decision;
  decision.control = model_.clamp(raw);
  const double margin = margin_eff(state);
  const Barrier::ValueAndFloor now =
      barrier_.value_and_floor(state, field, reach(state, decision.control));
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
