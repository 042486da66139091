#include "safety/safe_interval.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/expect.hpp"

namespace seo {

void SafeIntervalEvaluator::evaluate_column(
    const VehicleState& state, const Control& u,
    std::span<const Obstacle> obstacles, std::span<SafeInterval> out) const {
  SEO_EXPECT(obstacles.size() == out.size());
  // One field, rebuilt in place per cell: a fresh ObstacleField per cell
  // would make a table build allocation-bound.
  ObstacleField field;
  field.reserve(1);
  for (std::size_t i = 0; i < obstacles.size(); ++i) {
    field.clear();
    field.push_back(obstacles[i]);
    out[i] = evaluate(state, u, field);
  }
}

LipschitzSafeInterval::LipschitzSafeInterval(LipschitzIntervalConfig config,
                                             Barrier barrier,
                                             std::optional<Road> road)
    : config_(config), barrier_(barrier), road_(std::move(road)) {
  SEO_EXPECT(config_.sensing_range > 0.0);
  SEO_EXPECT(config_.rate_gain > 0.0);
  SEO_EXPECT(config_.speed_floor > 0.0);
}

double LipschitzSafeInterval::interval_from_h(double h, double speed) const {
  if (h <= 0.0) return 0.0;
  const double rate =
      config_.rate_gain * (std::max(speed, 0.0) + config_.environment_speed +
                           config_.speed_floor);
  return h / rate;
}

double LipschitzSafeInterval::road_term_s(const VehicleState& state) const {
  if (!road_ || config_.road_conservatism <= 0.0)
    return std::numeric_limits<double>::infinity();
  // Lateral velocity toward the edge being approached.
  const double vy = state.speed * std::sin(state.heading);
  if (std::abs(vy) < 1e-6) return std::numeric_limits<double>::infinity();
  const double edge_y =
      vy > 0.0 ? road_->half_width() : -road_->half_width();
  const double gap = vy > 0.0 ? edge_y - state.position.y
                              : state.position.y - edge_y;
  if (gap <= 0.0) return 0.0;  // already at/over the edge
  return gap / std::abs(vy) / config_.road_conservatism;
}

SafeInterval LipschitzSafeInterval::evaluate(const VehicleState& state,
                                             const Control& /*u*/,
                                             const ObstacleField& field) const {
  // Worst-case certificate: independent of the applied control, so `u` is
  // intentionally unused (the bound holds over all admissible actions).
  // Range is measured as body-to-surface clearance, matching the reduced
  // coordinate the lookup table is built over.
  const auto nearest = field.nearest(state.position);
  // Epsilon absorbs polar-coordinate round-trip noise at the domain edge.
  if (!nearest || nearest->surface_distance - barrier_.config().body_radius >
                      config_.sensing_range + 1e-9)
    return SafeInterval{false, 0.0};

  const double h = barrier_.value(state, field);
  double delta = interval_from_h(h, state.speed);
  delta = std::min(delta, road_term_s(state));
  return SafeInterval{true, delta};
}

namespace {
/// Steps per block of a column march: the scratch holds kMarchBlock + 1
/// states (~16 KB) whatever the horizon.
constexpr int kMarchBlock = 512;
/// The longest march a config may ask for.
constexpr double kMaxSteps = 1e7;
}  // namespace

RolloutSafeInterval::RolloutSafeInterval(RolloutIntervalConfig config,
                                         BicycleModel model, Barrier barrier)
    : config_(config), model_(std::move(model)), barrier_(barrier) {
  SEO_EXPECT(config_.sensing_range > 0.0);
  SEO_EXPECT(config_.horizon_s > 0.0);
  SEO_EXPECT(config_.step_s > 0.0 && config_.step_s < config_.horizon_s);
  SEO_EXPECT(config_.horizon_s / config_.step_s <= kMaxSteps);
  SEO_EXPECT(config_.bisection_iters >= 0);
  // The march's loop condition, counted once: t never stalls, as
  // t < horizon_s <= kMaxSteps * step_s keeps step_s far above ulp(t).
  for (double t = 0.0; t < config_.horizon_s; t += config_.step_s) ++steps_;
}

std::optional<SafeInterval> RolloutSafeInterval::settle(
    const VehicleState& state, const ObstacleField& field,
    double reach) const {
  const auto nearest = field.nearest(state.position);
  if (!nearest || nearest->surface_distance - barrier_.config().body_radius >
                      config_.sensing_range + 1e-9)
    return SafeInterval{false, 0.0};
  const Barrier::ValueAndFloor now =
      barrier_.value_and_floor(state, field, reach);
  if (now.value < 0.0) return SafeInterval{true, 0.0};
  // Horizon certificate: every state the march can reach has
  // h >= floor >= 0, so none of its sign tests can fail.
  if (now.floor >= 0.0) return SafeInterval{true, config_.horizon_s};
  return std::nullopt;
}

double RolloutSafeInterval::crossing_offset(const VehicleState& prev,
                                            const HeldControl& held,
                                            const ObstacleField& field) const {
  double lo = 0.0, hi = config_.step_s;
  for (int i = 0; i < config_.bisection_iters; ++i) {
    const double mid = 0.5 * (lo + hi);
    const VehicleState s_mid = model_.step_euler(prev, held, mid);
    if (barrier_.value(s_mid, field, 0.0) < 0.0)
      hi = mid;
    else
      lo = mid;
  }
  return lo;
}

// Every barrier test of a march is a sign test, so the fold is capped at 0:
// value(.., 0.0) == min(0, h) is < 0 exactly when h is, and obstacles that
// cannot pull h below zero skip their trig.  The control is held for the
// whole march, so its clamp/slip-angle terms are computed once.
SafeInterval RolloutSafeInterval::evaluate(const VehicleState& state,
                                           const Control& u,
                                           const ObstacleField& field) const {
  const HeldControl held = model_.hold(u);
  if (const auto settled = settle(
          state, field,
          model_.reach(state, held.clamped, steps_, config_.step_s)))
    return *settled;
  VehicleState prev = state;
  double t = 0.0;
  for (int k = 0; k < steps_; ++k) {
    const VehicleState next = model_.step_euler(prev, held, config_.step_s);
    if (barrier_.value(next, field, 0.0) < 0.0)
      return SafeInterval{true, t + crossing_offset(prev, held, field)};
    prev = next;
    t += config_.step_s;
  }
  // Never crossed within the horizon: the held control is safe for at
  // least the horizon.
  return SafeInterval{true, config_.horizon_s};
}

void RolloutSafeInterval::evaluate_column(const VehicleState& state,
                                          const Control& u,
                                          std::span<const Obstacle> obstacles,
                                          std::span<SafeInterval> out) const {
  SEO_EXPECT(obstacles.size() == out.size());
  const HeldControl held = model_.hold(u);
  const double reach =
      model_.reach(state, held.clamped, steps_, config_.step_s);
  ObstacleField field;
  field.reserve(1);
  const auto load = [&field](const Obstacle& obstacle) {
    field.clear();
    field.push_back(obstacle);
  };
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < obstacles.size(); ++i) {
    load(obstacles[i]);
    if (const auto settled = settle(state, field, reach))
      out[i] = *settled;
    else
      pending.push_back(i);
  }

  // The march every pending cell shares, a block at a time: states[j] is
  // the block's j-th state (states[0] ends the previous block) and times[j]
  // the elapsed t at it, summed step by step exactly as evaluate() sums.
  const auto block = static_cast<std::size_t>(std::min(steps_, kMarchBlock));
  std::vector<VehicleState> states(block + 1);
  std::vector<double> times(block + 1);
  states[0] = state;
  times[0] = 0.0;
  for (int done = 0; done < steps_ && !pending.empty();) {
    const auto n = std::min(block, static_cast<std::size_t>(steps_ - done));
    for (std::size_t j = 1; j <= n; ++j) {
      states[j] = model_.step_euler(states[j - 1], held, config_.step_s);
      times[j] = times[j - 1] + config_.step_s;
    }
    std::size_t kept = 0;
    for (std::size_t p = 0; p < pending.size(); ++p) {
      const std::size_t i = pending[p];
      load(obstacles[i]);
      std::size_t j = 1;
      while (j <= n && !(barrier_.value(states[j], field, 0.0) < 0.0)) ++j;
      if (j <= n)
        out[i] = SafeInterval{
            true, times[j - 1] + crossing_offset(states[j - 1], held, field)};
      else
        pending[kept++] = i;
    }
    pending.resize(kept);
    states[0] = states[n];
    times[0] = times[n];
    done += static_cast<int>(n);
  }
  for (const std::size_t i : pending)
    out[i] = SafeInterval{true, config_.horizon_s};
}

}  // namespace seo
