#include "safety/barrier.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/expect.hpp"

namespace seo {

Barrier::Barrier(BarrierConfig config) : config_(config) {
  SEO_EXPECT(config_.body_radius >= 0.0);
  SEO_EXPECT(config_.margin > 0.0);
  SEO_EXPECT(config_.heading_gain >= 0.0);
}

double Barrier::surface_clearance(const VehicleState& state,
                                  const Obstacle& obstacle) const {
  return distance(state.position, obstacle.center) - obstacle.radius -
         config_.body_radius;
}

double Barrier::relative_bearing(const VehicleState& state,
                                 const Obstacle& obstacle) const {
  const Vec2 rel = obstacle.center - state.position;
  return wrap_angle(rel.angle() - state.heading);
}

double Barrier::value(const VehicleState& state,
                      const Obstacle& obstacle) const {
  const double clearance = surface_clearance(state, obstacle);
  const double chi = relative_bearing(state, obstacle);
  const double g = 1.0 + config_.heading_gain * (1.0 + std::cos(chi)) * 0.5;
  return clearance - config_.margin * g;
}

namespace {

// Slack of value_and_floor: 2^-40 is thousands of unit roundoffs
// (u = 2^-53), far above the few dozen roundings the proof charges to each
// magnitude; the absolute nanometre covers underflow in the squares
// (below 1e-150 m).
constexpr double kRelSlack = 0x1p-40;
constexpr double kAbsSlack = 1e-9;

// The SoA min-fold behind value(state, field, cap) and value_and_floor();
// the proofs sit with those two.  With kFloor it also folds
// min_i(lb_i - kRelSlack * (d_i + |r_i|)) into `lo` and clears `finite`
// when one of those terms is not finite; the fold of h is the same either
// way.
template <bool kFloor>
double fold_field(const BarrierConfig& config, const VehicleState& state,
                  const ObstacleField& field, double cap, double& lo,
                  bool& finite) {
  const std::size_t n = field.size();
  const double* xs = field.xs().data();
  const double* ys = field.ys().data();
  const double* radii = field.radii().data();
  const double px = state.position.x;
  const double py = state.position.y;
  const double worst_g = 1.0 + config.heading_gain;
  double h = cap;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = px - xs[i];
    const double dy = py - ys[i];
    const double dist = std::sqrt(dx * dx + dy * dy);
    const double clearance = dist - radii[i] - config.body_radius;
    const double lb = clearance - config.margin * worst_g;
    if constexpr (kFloor) {
      const double term = lb - kRelSlack * (dist + std::abs(radii[i]));
      lo = std::min(lo, term);
      finite = finite && std::isfinite(term);
    }
    if (lb >= h) continue;
    const double chi =
        wrap_angle(std::atan2(ys[i] - py, xs[i] - px) - state.heading);
    const double g = 1.0 + config.heading_gain * (1.0 + std::cos(chi)) * 0.5;
    h = std::min(h, clearance - config.margin * g);
  }
  return h;
}

}  // namespace

double Barrier::value(const VehicleState& state, const ObstacleField& field,
                      double cap) const {
  // SoA kernel over the field's parallel arrays, bit-identical to folding
  // the per-obstacle `value()` in index order:
  //
  //   h_i = clearance_i - margin * g(chi_i),   g in [1, 1 + heading_gain]
  //
  // Trig skip: lb_i = clearance_i - margin * (1 + heading_gain) bounds h_i
  // from below *in floating point* — g(chi) <= 1 + heading_gain holds under
  // rounding because every step ((1+cos)<=2 with 1+1==2 exact, *0.5 exact,
  // monotone multiply/add) preserves the bound.  When lb_i >= running min m
  // we have h_i >= m, so min(m, h_i) == m and the atan2/wrap/cos for this
  // obstacle can be skipped without changing a single output bit.
  //
  // Capped fold: the running min starts at `cap` instead of +inf.
  // std::min keeps its first argument on ties and ignores a NaN second
  // argument, so folding [cap, h_0, .., h_n-1] returns exactly
  // std::min(cap, fold[h_0, .., h_n-1]) — and the trig skip above now
  // prunes against the caller's bound from the first obstacle on.
  double lo = 0.0;
  bool finite = true;
  return fold_field<false>(config_, state, field, cap, lo, finite);
}

Barrier::ValueAndFloor Barrier::value_and_floor(const VehicleState& state,
                                                const ObstacleField& field,
                                                double reach) const {
  // The floor is the trig-skip bound made to hold over a disc.  Write
  // u = 2^-53, D_i = |p - o_i| (exact), L_i(p) = D_i - r_i - body - W with
  // W = fl(margin * (1 + heading_gain)), and lb_i(p) for the kernel's
  // rounded L_i — a lower bound on its h_i (see value()), so on the
  // capped fold too unless the cap is lower.
  //
  //  * Kernel error.  The difference, squares, sum and sqrt leave the
  //    computed d_i within 4u*D_i of D_i, and each of the three
  //    subtractions adds u times its result, so for finite terms
  //    |lb_i(p) - L_i(p)| <= 8u*(D_i + |r_i| + body + W), plus under
  //    kAbsSlack/2 when a square underflows.  An overflowing square only
  //    raises d_i; a position or term that overflows to +inf or NaN never
  //    lowers the fold (std::min drops a NaN second argument).
  //  * Lipschitz step.  L_i is 1-Lipschitz in p, so for |p' - p| <= reach
  //    and D_i' <= D_i + reach:
  //      lb_i(p') >= lb_i(p) - reach - 16u*(D_i + |r_i| + body + W)
  //                  - 8u*reach - kAbsSlack.
  //  * Folding.  term_i = lb_i - kRelSlack*(d_i + |r_i|), rounded, absorbs
  //    the per-obstacle part (kRelSlack >> 18u, D_i <= d_i*(1 + 4u));
  //    lo = min_i term_i.  The floor lo - reach - slack, with
  //    slack = kRelSlack*(reach + body + W + |lo|) + kAbsSlack, absorbs the
  //    rest together with its own three roundings (each within u of
  //    |lo| + reach + slack).
  //
  // So value(s', field) >= floor for every such s'.  A non-finite term
  // leaves nothing to bound it with, and fails the floor instead.
  double lo = std::numeric_limits<double>::infinity();
  bool finite = true;
  ValueAndFloor out;
  out.value = fold_field<true>(config_, state, field,
                               std::numeric_limits<double>::infinity(), lo,
                               finite);
  if (!(reach >= 0.0) || !finite) {
    out.floor = std::numeric_limits<double>::quiet_NaN();
  } else if (field.empty()) {
    out.floor = std::numeric_limits<double>::infinity();
  } else {
    const double worst = config_.margin * (1.0 + config_.heading_gain);
    const double slack =
        kRelSlack * (reach + config_.body_radius + worst + std::abs(lo)) +
        kAbsSlack;
    out.floor = lo - reach - slack;
  }
  return out;
}

}  // namespace seo
