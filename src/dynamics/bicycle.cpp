#include "dynamics/bicycle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/expect.hpp"

namespace seo {

BicycleModel::BicycleModel(BicycleParams params) : params_(params) {
  SEO_EXPECT(params_.wheelbase_front > 0.0);
  SEO_EXPECT(params_.wheelbase_rear > 0.0);
  SEO_EXPECT(params_.max_steer > 0.0);
  SEO_EXPECT(params_.max_accel > 0.0);
  SEO_EXPECT(params_.max_brake > 0.0);
  SEO_EXPECT(params_.max_speed > 0.0);
  SEO_EXPECT(params_.drag_coeff >= 0.0);
}

Control BicycleModel::clamp(const Control& u) const {
  Control c = u;
  c.steering = std::clamp(c.steering, -params_.max_steer, params_.max_steer);
  c.throttle = std::clamp(c.throttle, -1.0, 1.0);
  return c;
}

double BicycleModel::slip_angle(double steering) const {
  const double delta =
      std::clamp(steering, -params_.max_steer, params_.max_steer);
  const double ratio =
      params_.wheelbase_rear / (params_.wheelbase_front + params_.wheelbase_rear);
  return std::atan(ratio * std::tan(delta));
}

double BicycleModel::accel_command(double throttle, double speed) const {
  const double drive = throttle >= 0.0 ? throttle * params_.max_accel
                                       : throttle * params_.max_brake;
  return drive - params_.drag_coeff * speed;
}

VehicleDerivative BicycleModel::derivative(const VehicleState& state,
                                           const Control& u) const {
  const Control c = clamp(u);
  const double beta = slip_angle(c.steering);
  VehicleDerivative d;
  d.velocity = Vec2::from_polar(state.speed, state.heading + beta);
  d.yaw_rate = state.speed / params_.wheelbase_rear * std::sin(beta);
  d.accel = accel_command(c.throttle, state.speed);
  return d;
}

HeldControl BicycleModel::hold(const Control& u) const {
  HeldControl h;
  h.clamped = clamp(u);
  h.beta = slip_angle(h.clamped.steering);
  h.sin_beta = std::sin(h.beta);
  return h;
}

VehicleDerivative BicycleModel::derivative(const VehicleState& state,
                                           const HeldControl& held) const {
  // Same operations as derivative(state, Control) after its clamp and
  // slip-angle evaluation — beta and sin(beta) are the very doubles that
  // call would produce (clamp is idempotent), so the outputs match bitwise.
  VehicleDerivative d;
  d.velocity = Vec2::from_polar(state.speed, state.heading + held.beta);
  d.yaw_rate = state.speed / params_.wheelbase_rear * held.sin_beta;
  d.accel = accel_command(held.clamped.throttle, state.speed);
  return d;
}

namespace {
/// Applies a derivative scaled by dt to a state (the RK4 building block).
VehicleState apply(const VehicleState& s, const VehicleDerivative& d,
                   double dt) {
  VehicleState out = s;
  out.position += d.velocity * dt;
  out.heading = wrap_angle(s.heading + d.yaw_rate * dt);
  out.speed = s.speed + d.accel * dt;
  return out;
}
}  // namespace

VehicleState BicycleModel::step(const VehicleState& state, const Control& u,
                                double dt) const {
  SEO_EXPECT(dt > 0.0);
  const VehicleDerivative k1 = derivative(state, u);
  const VehicleDerivative k2 = derivative(apply(state, k1, dt * 0.5), u);
  const VehicleDerivative k3 = derivative(apply(state, k2, dt * 0.5), u);
  const VehicleDerivative k4 = derivative(apply(state, k3, dt), u);

  VehicleDerivative blended;
  blended.velocity =
      (k1.velocity + 2.0 * k2.velocity + 2.0 * k3.velocity + k4.velocity) /
      6.0;
  blended.yaw_rate =
      (k1.yaw_rate + 2.0 * k2.yaw_rate + 2.0 * k3.yaw_rate + k4.yaw_rate) /
      6.0;
  blended.accel = (k1.accel + 2.0 * k2.accel + 2.0 * k3.accel + k4.accel) / 6.0;

  VehicleState out = apply(state, blended, dt);
  out.speed = std::clamp(out.speed, 0.0, params_.max_speed);
  return out;
}

VehicleState BicycleModel::step_euler(const VehicleState& state,
                                      const Control& u, double dt) const {
  SEO_EXPECT(dt > 0.0);
  VehicleState out = apply(state, derivative(state, u), dt);
  out.speed = std::clamp(out.speed, 0.0, params_.max_speed);
  return out;
}

VehicleState BicycleModel::step(const VehicleState& state,
                                const HeldControl& held, double dt) const {
  SEO_EXPECT(dt > 0.0);
  const VehicleDerivative k1 = derivative(state, held);
  const VehicleDerivative k2 = derivative(apply(state, k1, dt * 0.5), held);
  const VehicleDerivative k3 = derivative(apply(state, k2, dt * 0.5), held);
  const VehicleDerivative k4 = derivative(apply(state, k3, dt), held);

  VehicleDerivative blended;
  blended.velocity =
      (k1.velocity + 2.0 * k2.velocity + 2.0 * k3.velocity + k4.velocity) /
      6.0;
  blended.yaw_rate =
      (k1.yaw_rate + 2.0 * k2.yaw_rate + 2.0 * k3.yaw_rate + k4.yaw_rate) /
      6.0;
  blended.accel = (k1.accel + 2.0 * k2.accel + 2.0 * k3.accel + k4.accel) / 6.0;

  VehicleState out = apply(state, blended, dt);
  out.speed = std::clamp(out.speed, 0.0, params_.max_speed);
  return out;
}

VehicleState BicycleModel::step_euler(const VehicleState& state,
                                      const HeldControl& held,
                                      double dt) const {
  SEO_EXPECT(dt > 0.0);
  VehicleState out = apply(state, derivative(state, held), dt);
  out.speed = std::clamp(out.speed, 0.0, params_.max_speed);
  return out;
}

double BicycleModel::reach(const VehicleState& state, const Control& clamped,
                           int steps, double dt) const {
  // Every Euler step moves the vehicle by the speed v_j it starts with
  // times dt; write u = 2^-53 and N = steps.
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
  //    v_0 + a*N/2)) * (1 + u)^N, or max_speed alone for v_0 < 0.  The
  //    displacement of a step rounds to within 5u of |v_j|*dt (two
  //    products; cos and sin within an ulp) and adding it to a coordinate
  //    rounds within u of that coordinate, which stays within
  //    |x_0| + |y_0| + 2 * reach.
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
  const double n = static_cast<double>(steps);
  const double a = std::max(0.0, clamped.throttle) * params_.max_accel * dt;
  const double mean_speed =
      v0 >= 0.0 ? std::min(params_.max_speed, v0 + a * n * 0.5)
                : params_.max_speed;
  const double path = dt * (std::abs(v0) + (n - 1.0) * mean_speed);
  return path + n * 0x1p-40 * (path + std::abs(x) + std::abs(y));
}

}  // namespace seo
