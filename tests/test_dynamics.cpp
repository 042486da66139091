// Unit + property tests for the kinematic bicycle model, obstacles and road
// geometry — the plant the safety analysis is derived on.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numbers>
#include <vector>

#include "dynamics/bicycle.hpp"
#include "dynamics/obstacle.hpp"
#include "dynamics/road.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace seo {
namespace {

TEST(Vec2, Arithmetic) {
  const Vec2 a{1.0, 2.0}, b{3.0, -1.0};
  EXPECT_DOUBLE_EQ((a + b).x, 4.0);
  EXPECT_DOUBLE_EQ((a - b).y, 3.0);
  EXPECT_DOUBLE_EQ((a * 2.0).x, 2.0);
  EXPECT_DOUBLE_EQ((2.0 * a).y, 4.0);
  EXPECT_DOUBLE_EQ(a.dot(b), 1.0);
  EXPECT_DOUBLE_EQ(a.cross(b), -7.0);
  EXPECT_DOUBLE_EQ((Vec2{3.0, 4.0}.norm()), 5.0);
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
}

TEST(Vec2, NormalizedHandlesZero) {
  const Vec2 z{0.0, 0.0};
  EXPECT_DOUBLE_EQ(z.normalized().x, 1.0);
  const Vec2 v = Vec2{0.0, -2.0}.normalized();
  EXPECT_DOUBLE_EQ(v.y, -1.0);
}

TEST(Vec2, FromPolar) {
  const Vec2 v = Vec2::from_polar(2.0, std::numbers::pi / 2.0);
  EXPECT_NEAR(v.x, 0.0, 1e-12);
  EXPECT_NEAR(v.y, 2.0, 1e-12);
}

class WrapAngleTest : public ::testing::TestWithParam<double> {};

TEST_P(WrapAngleTest, ResultInHalfOpenInterval) {
  const double wrapped = wrap_angle(GetParam());
  EXPECT_GT(wrapped, -std::numbers::pi);
  EXPECT_LE(wrapped, std::numbers::pi);
  // Wrapping preserves the angle modulo 2*pi.
  EXPECT_NEAR(std::sin(wrapped), std::sin(GetParam()), 1e-9);
  EXPECT_NEAR(std::cos(wrapped), std::cos(GetParam()), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, WrapAngleTest,
                         ::testing::Values(-25.0, -7.0, -3.2, -3.14159, 0.0,
                                           1.0, 3.14159, 3.2, 9.42, 100.0,
                                           -201.0, 202.0, -1e4, 12345.678));

TEST(WrapAngle, FarAndNonFiniteAnglesReturnPromptly) {
  // Stepping by 2*pi would take ~|a| / 2pi iterations, and never end once
  // a - 2*pi == a: far angles must be reduced directly, non-finite ones
  // rejected as NaN.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double a : {1e15, -1e15, 1e17, -1e17, 1e300,
                         std::numeric_limits<double>::max()}) {
    const double wrapped = wrap_angle(a);
    EXPECT_GT(wrapped, -std::numbers::pi) << a;
    EXPECT_LE(wrapped, std::numbers::pi) << a;
  }
  EXPECT_TRUE(std::isnan(wrap_angle(inf)));
  EXPECT_TRUE(std::isnan(wrap_angle(-inf)));
  EXPECT_TRUE(std::isnan(wrap_angle(std::numeric_limits<double>::quiet_NaN())));
}

TEST(WrapAngle, NearAnglesKeepTheSteppedBits) {
  // Up to the reduction bound the result is the 2*pi stepping loop's, bit
  // for bit, so every trajectory and pin computed with it holds.
  constexpr double kPi = 3.14159265358979323846;
  for (double a = -64.0 * kPi; a <= 64.0 * kPi; a += 0.37) {
    double stepped = a;
    while (stepped > kPi) stepped -= 2.0 * kPi;
    while (stepped <= -kPi) stepped += 2.0 * kPi;
    EXPECT_EQ(wrap_angle(a), stepped) << a;
  }
}

TEST(Bicycle, StraightLineStaysOnAxis) {
  const BicycleModel model;
  VehicleState s;
  s.speed = 10.0;
  for (int i = 0; i < 200; ++i) s = model.step(s, Control{0.0, 0.0}, 0.01);
  EXPECT_NEAR(s.position.y, 0.0, 1e-9);
  EXPECT_NEAR(s.heading, 0.0, 1e-9);
  EXPECT_GT(s.position.x, 0.0);
}

TEST(Bicycle, LeftSteerTurnsLeft) {
  const BicycleModel model;
  VehicleState s;
  s.speed = 8.0;
  for (int i = 0; i < 100; ++i) s = model.step(s, Control{0.3, 0.0}, 0.01);
  EXPECT_GT(s.heading, 0.1);
  EXPECT_GT(s.position.y, 0.0);
}

TEST(Bicycle, ThrottleAcceleratesBrakeDecelerates) {
  const BicycleModel model;
  VehicleState s;
  s.speed = 5.0;
  const VehicleState faster = model.step(s, Control{0.0, 1.0}, 0.1);
  EXPECT_GT(faster.speed, s.speed);
  const VehicleState slower = model.step(s, Control{0.0, -1.0}, 0.1);
  EXPECT_LT(slower.speed, s.speed);
}

TEST(Bicycle, SpeedNeverNegativeNorAboveMax) {
  BicycleParams p;
  p.max_speed = 12.0;
  const BicycleModel model(p);
  VehicleState s;
  s.speed = 0.5;
  for (int i = 0; i < 500; ++i) {
    s = model.step(s, Control{0.0, -1.0}, 0.02);
    EXPECT_GE(s.speed, 0.0);
  }
  for (int i = 0; i < 2000; ++i) {
    s = model.step(s, Control{0.0, 1.0}, 0.02);
    EXPECT_LE(s.speed, 12.0 + 1e-9);
  }
}

TEST(Bicycle, DragDecaysCoastingSpeed) {
  BicycleParams p;
  p.drag_coeff = 0.2;
  const BicycleModel model(p);
  VehicleState s;
  s.speed = 10.0;
  const VehicleState coasted = model.step(s, Control{0.0, 0.0}, 1.0);
  // v' = -drag*v -> exponential decay.
  EXPECT_NEAR(coasted.speed, 10.0 * std::exp(-0.2), 0.05);
}

TEST(Bicycle, ClampLimitsActuators) {
  const BicycleModel model;
  const Control c = model.clamp(Control{10.0, -5.0});
  EXPECT_DOUBLE_EQ(c.steering, model.params().max_steer);
  EXPECT_DOUBLE_EQ(c.throttle, -1.0);
}

TEST(Bicycle, SteadyStateTurningRadiusMatchesGeometry) {
  // At constant speed and steering, the KBM traces a circle of radius
  // R = l_r / sin(beta).
  const BicycleModel model;
  const double steer = 0.2;
  const double beta = model.slip_angle(steer);
  const double expected_r = model.params().wheelbase_rear / std::sin(beta);

  VehicleState s;
  s.speed = 5.0;
  // Drag-free throttle to hold speed ~constant: compensate drag.
  const double throttle =
      model.params().drag_coeff * 5.0 / model.params().max_accel;
  // Integrate one full-ish turn and fit the radius from yaw rate.
  const VehicleDerivative d = model.derivative(s, Control{steer, throttle});
  const double measured_r = s.speed / d.yaw_rate;
  EXPECT_NEAR(measured_r, expected_r, 1e-9);
}

TEST(Bicycle, Rk4AndEulerConvergeForSmallSteps) {
  const BicycleModel model;
  VehicleState rk = {{0, 0}, 0.0, 8.0};
  VehicleState eu = rk;
  const Control u{0.15, 0.3};
  for (int i = 0; i < 1000; ++i) {
    rk = model.step(rk, u, 0.001);
    eu = model.step_euler(eu, u, 0.001);
  }
  EXPECT_NEAR(distance(rk.position, eu.position), 0.0, 0.05);
  EXPECT_NEAR(rk.heading, eu.heading, 0.01);
}

TEST(Bicycle, ReachBoundsEveryEulerMarch) {
  // Every state of an N-step Euler march under a held control lies within
  // reach() of the start, in floating point.  The safety filter's pass
  // certificate and the rollout-phi horizon certificate both stand on it.
  // Random marches cover any heading and steer, negative, zero, in-range
  // and above-max speeds and out-of-range throttles.  Tight marches drive
  // a drag-free model straight along +x far from the origin: the bound is
  // then exact in real arithmetic, and each step's coordinate rounding
  // (up to half an ulp of a coordinate near 4e6, the same way every step)
  // is what the bound's slack must absorb.
  Rng rng(91);
  BicycleParams drag_free;
  drag_free.drag_coeff = 0.0;
  int tight = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const bool straight = trial % 2 == 1;
    const BicycleModel model(straight ? drag_free : BicycleParams{});
    const int steps = std::array{1, 30, 401}[trial % 3];
    const double dt = trial % 4 < 2 ? 0.005 : 0.02;
    VehicleState s;
    Control u;
    if (straight) {
      const double far = std::ldexp(rng.uniform(1.0, 2.0), 21);
      s.position = {trial % 8 < 4 ? far : -far, 0.0};
      s.speed = rng.uniform(0.0, 14.0);
      u = Control{0.0, rng.uniform(-0.5, 1.2)};
    } else {
      s.position = {rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0)};
      s.heading = rng.uniform(-3.1, 3.1);
      const int kind = trial % 5;
      s.speed = kind == 0   ? rng.uniform(-6.0, 0.0)
                : kind == 1 ? 0.0
                : kind == 2 ? rng.uniform(25.0, 40.0)
                            : rng.uniform(0.0, 25.0);
      u = Control{rng.uniform(-0.7, 0.7), rng.uniform(-1.5, 1.5)};
    }
    const HeldControl held = model.hold(u);
    const double reach = model.reach(s, held.clamped, steps, dt);
    ASSERT_TRUE(std::isfinite(reach));
    VehicleState cur = s;
    long double worst = 0.0L;
    for (int k = 0; k < steps; ++k) {
      cur = model.step_euler(cur, held, dt);
      // Long double differences of doubles this close are exact.
      const long double dx = static_cast<long double>(cur.position.x) -
                             static_cast<long double>(s.position.x);
      const long double dy = static_cast<long double>(cur.position.y) -
                             static_cast<long double>(s.position.y);
      worst = std::max(worst, std::sqrt(dx * dx + dy * dy));
    }
    EXPECT_LE(worst, static_cast<long double>(reach)) << "trial " << trial;
    // A tight march ends within twice the bound's relative slack
    // (steps * 2^-40 of the coordinates) of it: the slack is all that
    // separates the two.
    const double slack = steps * 0x1p-40 * (reach + std::abs(s.position.x));
    if (straight && static_cast<long double>(reach) - worst < 2.0L * slack)
      ++tight;
  }
  EXPECT_GT(tight, 1000);
  // Non-finite inputs get no bound.
  const BicycleModel model;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  VehicleState s;
  s.speed = 5.0;
  EXPECT_TRUE(std::isnan(model.reach(s, Control{nan, 0.5}, 30, 0.02)));
  EXPECT_TRUE(std::isnan(model.reach(s, Control{0.0, nan}, 30, 0.02)));
  VehicleState bad = s;
  bad.speed = inf;
  EXPECT_TRUE(std::isnan(model.reach(bad, Control{}, 30, 0.02)));
  bad = s;
  bad.heading = nan;
  EXPECT_TRUE(std::isnan(model.reach(bad, Control{}, 30, 0.02)));
  bad = s;
  bad.position.x = inf;
  EXPECT_TRUE(std::isnan(model.reach(bad, Control{}, 30, 0.02)));
}

TEST(Bicycle, InvalidParamsRejected) {
  BicycleParams p;
  p.max_steer = 0.0;
  EXPECT_THROW(BicycleModel{p}, ContractViolation);
  p = BicycleParams{};
  p.wheelbase_rear = -1.0;
  EXPECT_THROW(BicycleModel{p}, ContractViolation);
}

TEST(ObstacleField, NearestFindsClosestSurface) {
  // The big-but-distant obstacle loses to the small-but-near one.
  const ObstacleField field(
      {Obstacle{{10.0, 0.0}, 3.0}, Obstacle{{4.0, 0.0}, 0.5}});
  const auto nearest = field.nearest({0.0, 0.0});
  ASSERT_TRUE(nearest.has_value());
  EXPECT_EQ(nearest->index, 1u);
  EXPECT_DOUBLE_EQ(nearest->surface_distance, 3.5);
}

TEST(ObstacleField, EmptyFieldHasNoNearest) {
  const ObstacleField field;
  EXPECT_FALSE(field.nearest({0, 0}).has_value());
  EXPECT_FALSE(field.collides({0, 0}, 10.0));
}

TEST(ObstacleField, CollisionBoundary) {
  const ObstacleField field({Obstacle{{5.0, 0.0}, 1.0}});
  EXPECT_TRUE(field.collides({3.1, 0.0}, 1.0));   // 1.9 < 2.0
  EXPECT_TRUE(field.collides({3.0, 0.0}, 1.0));   // exactly touching
  EXPECT_FALSE(field.collides({2.9, 0.0}, 1.0));  // 2.1 > 2.0
}

TEST(ObstacleField, WithinRange) {
  const ObstacleField field(
      {Obstacle{{5.0, 0.0}, 1.0}, Obstacle{{50.0, 0.0}, 1.0}});
  const auto near_set = field.within({0.0, 0.0}, 10.0);
  EXPECT_EQ(near_set.size(), 1u);
  EXPECT_EQ(near_set[0].index, 0u);
  EXPECT_EQ(field.within({0.0, 0.0}, 100.0).size(), 2u);
}

TEST(ObstacleField, RejectsNonPositiveRadius) {
  EXPECT_THROW(ObstacleField({Obstacle{{0, 0}, 0.0}}), ContractViolation);
}

TEST(ObstacleField, SoAColumnsMirrorAoSThroughEveryMutation) {
  // The SoA columns feed the safety kernels; they must stay index-aligned
  // with the AoS facade across construction, push_back, clear and reuse.
  const auto check_mirror = [](const ObstacleField& f) {
    ASSERT_EQ(f.xs().size(), f.size());
    ASSERT_EQ(f.ys().size(), f.size());
    ASSERT_EQ(f.radii().size(), f.size());
    for (std::size_t i = 0; i < f.size(); ++i) {
      EXPECT_EQ(f.xs()[i], f.at(i).center.x);
      EXPECT_EQ(f.ys()[i], f.at(i).center.y);
      EXPECT_EQ(f.radii()[i], f.at(i).radius);
    }
  };
  ObstacleField field({Obstacle{{1.0, 2.0}, 0.5}, Obstacle{{-3.0, 4.0}, 2.0}});
  check_mirror(field);
  field.push_back(Obstacle{{7.0, -1.0}, 1.25});
  check_mirror(field);
  field.clear();
  EXPECT_TRUE(field.empty());
  check_mirror(field);
  field.reserve(4);
  field.push_back(Obstacle{{0.25, 0.75}, 3.0});
  check_mirror(field);
}

TEST(ObstacleField, SoAQueriesMatchAoSReferenceBitExactly) {
  // nearest/collides/within run over the SoA columns; pin them to a plain
  // AoS loop over obstacles() so the layout split can never drift.
  const ObstacleField field({Obstacle{{5.0, 1.0}, 1.0},
                             Obstacle{{-2.0, 3.0}, 0.75},
                             Obstacle{{9.0, -4.0}, 2.5}});
  const Vec2 probes[] = {{0.0, 0.0}, {4.0, 1.0}, {-1.0, 2.0}, {8.0, -3.0}};
  for (const Vec2& p : probes) {
    std::size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < field.size(); ++i) {
      const double d = distance(p, field.at(i).center) - field.at(i).radius;
      if (d < best_d) {
        best_d = d;
        best = i;
      }
    }
    const auto nearest = field.nearest(p);
    ASSERT_TRUE(nearest.has_value());
    EXPECT_EQ(nearest->index, best);
    EXPECT_EQ(nearest->surface_distance, best_d);
    EXPECT_EQ(field.collides(p, 1.0), best_d <= 1.0);
    std::vector<NearestObstacle> hits;
    field.within_into(p, 6.0, hits);
    std::size_t expected_hits = 0;
    for (std::size_t i = 0; i < field.size(); ++i)
      if (distance(p, field.at(i).center) <= 6.0) ++expected_hits;
    EXPECT_EQ(hits.size(), expected_hits);
  }
}

TEST(Road, ProgressClampsToRoute) {
  const Road road(RoadParams{100.0, 6.0});
  EXPECT_DOUBLE_EQ(road.progress({-5.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(road.progress({42.0, 3.0}), 42.0);
  EXPECT_DOUBLE_EQ(road.progress({140.0, 0.0}), 100.0);
}

TEST(Road, BoundaryMarginSignedAndOffRoad) {
  const Road road(RoadParams{100.0, 6.0});
  EXPECT_DOUBLE_EQ(road.boundary_margin({0.0, 0.0}), 6.0);
  EXPECT_DOUBLE_EQ(road.boundary_margin({0.0, 4.0}), 2.0);
  EXPECT_DOUBLE_EQ(road.boundary_margin({0.0, -7.0}), -1.0);
  EXPECT_FALSE(road.off_road({0.0, 5.9}));
  EXPECT_TRUE(road.off_road({0.0, 6.1}));
}

TEST(Road, FinishLine) {
  const Road road(RoadParams{100.0, 6.0});
  EXPECT_FALSE(road.finished({99.9, 0.0}));
  EXPECT_TRUE(road.finished({100.0, 0.0}));
}

TEST(Road, LookaheadPointOnCenterline) {
  const Road road(RoadParams{100.0, 6.0});
  const Vec2 p = road.lookahead_point({30.0, 2.0}, 8.0);
  EXPECT_DOUBLE_EQ(p.x, 38.0);
  EXPECT_DOUBLE_EQ(p.y, 0.0);
}

}  // namespace
}  // namespace seo
