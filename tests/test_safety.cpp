// Unit + property tests for the safety stack: barrier function, predictive
// safety filter, safe-interval evaluators (phi), and the deadline lookup
// table T(x,u).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/binary_io.hpp"
#include "dynamics/road.hpp"
#include "safety/barrier.hpp"
#include "safety/deadline_table.hpp"
#include "safety/safe_interval.hpp"
#include "safety/safety_filter.hpp"
#include "sim/scenario_library.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace seo {
namespace {

VehicleState state_at(double x, double y, double heading, double speed) {
  VehicleState s;
  s.position = {x, y};
  s.heading = heading;
  s.speed = speed;
  return s;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// `count` obstacles ahead of a vehicle near the origin, some close enough
/// to engage the filter or cross the barrier within a rollout.
ObstacleField random_field(Rng& rng, int count) {
  ObstacleField field;
  for (int i = 0; i < count; ++i)
    field.push_back(Obstacle{{rng.uniform(2.0, 30.0), rng.uniform(-5.0, 5.0)},
                             rng.uniform(0.4, 2.0)});
  return field;
}

TEST(Barrier, FartherIsSafer) {
  const Barrier barrier{BarrierConfig{}};
  const Obstacle o{{20.0, 0.0}, 1.0};
  double prev = -std::numeric_limits<double>::infinity();
  for (double x = 0.0; x < 18.0; x += 1.0) {
    const double h = barrier.value(state_at(x, 0.0, 0.0, 8.0), o);
    EXPECT_LT(h, prev == -std::numeric_limits<double>::infinity()
                  ? std::numeric_limits<double>::infinity()
                  : prev);
    prev = h;
  }
}

TEST(Barrier, HeadOnRequiresMoreClearanceThanTangential) {
  const Barrier barrier{BarrierConfig{}};
  const Obstacle ahead{{10.0, 0.0}, 1.0};
  // Same distance, heading toward vs. away from the obstacle.
  const double h_toward = barrier.value(state_at(0, 0, 0.0, 8.0), ahead);
  const double h_away = barrier.value(state_at(0, 0, 3.1415, 8.0), ahead);
  EXPECT_LT(h_toward, h_away);
  // The difference equals margin * heading_gain * (cos span)/2 ~ margin*k.
  const BarrierConfig c;
  EXPECT_NEAR(h_away - h_toward, c.margin * c.heading_gain, 0.01);
}

TEST(Barrier, FieldTakesWorstObstacle) {
  const Barrier barrier{BarrierConfig{}};
  const ObstacleField field(
      {Obstacle{{30.0, 0.0}, 1.0}, Obstacle{{5.0, 0.0}, 1.0}});
  const VehicleState s = state_at(0, 0, 0, 8);
  EXPECT_DOUBLE_EQ(barrier.value(s, field),
                   barrier.value(s, field.at(1)));
}

TEST(Barrier, EmptyFieldIsVacuouslySafe) {
  const Barrier barrier{BarrierConfig{}};
  EXPECT_TRUE(std::isinf(barrier.value(state_at(0, 0, 0, 8),
                                       ObstacleField{})));
  EXPECT_TRUE(barrier.safe(state_at(0, 0, 0, 8), ObstacleField{}));
}

TEST(Barrier, SoAFieldKernelMatchesScalarFacadeBitExactly) {
  // The field overload runs the SoA trig-skip kernel; it must return the
  // exact double of folding the per-obstacle AoS facade in index order —
  // the invariant that lets the hot path use the fast kernel while goldens
  // stay untouched.
  Rng rng(51);
  for (int trial = 0; trial < 40; ++trial) {
    BarrierConfig config;
    config.heading_gain = rng.uniform(0.0, 3.0);
    const Barrier barrier{config};
    const auto count = static_cast<std::size_t>(rng.uniform(1.0, 24.0));
    ObstacleField field;
    field.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
      field.push_back(Obstacle{{rng.uniform(-40.0, 40.0),
                                rng.uniform(-40.0, 40.0)},
                               rng.uniform(0.3, 4.0)});
    const VehicleState s =
        state_at(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0),
                 rng.uniform(-3.0, 3.0), rng.uniform(0.0, 12.0));
    double expected = std::numeric_limits<double>::infinity();
    for (const auto& o : field.obstacles())
      expected = std::min(expected, barrier.value(s, o));
    EXPECT_EQ(barrier.value(s, field), expected) << "trial " << trial;
  }
}

TEST(Barrier, CappedFoldIsMinOfCapAndValueBitExactly) {
  // value(s, field, cap) seeds the fold with `cap`; it must equal
  // std::min(cap, value(s, field)) bit for bit — signed zeros included —
  // so a rollout can pass its running min as the cap.
  Rng rng(53);
  const double inf = std::numeric_limits<double>::infinity();
  for (int trial = 0; trial < 400; ++trial) {
    BarrierConfig config;
    config.heading_gain = rng.uniform(0.0, 3.0);
    const Barrier barrier{config};
    const ObstacleField field = random_field(rng, rng.uniform_int(0, 8));
    const VehicleState s =
        state_at(rng.uniform(-2.0, 12.0), rng.uniform(-4.0, 4.0),
                 rng.uniform(-3.2, 3.2), rng.uniform(0.0, 12.0));
    const double h = barrier.value(s, field);
    for (const double cap :
         {inf, 0.0, -0.0, h, rng.uniform(-5.0, 5.0), -inf}) {
      EXPECT_EQ(bits(barrier.value(s, field, cap)), bits(std::min(cap, h)))
          << "trial " << trial << " cap " << cap;
    }
  }
}

/// Reference phi march: re-derives the control every step and folds the
/// barrier uncapped.
double reference_crossing_time(const BicycleModel& model,
                               const Barrier& barrier,
                               const RolloutIntervalConfig& config,
                               const VehicleState& s, const Control& u,
                               const ObstacleField& field) {
  if (barrier.value(s, field) < 0.0) return 0.0;
  VehicleState prev = s;
  double t = 0.0;
  while (t < config.horizon_s) {
    const VehicleState next = model.step_euler(prev, u, config.step_s);
    if (barrier.value(next, field) < 0.0) {
      double lo = 0.0, hi = config.step_s;
      for (int i = 0; i < config.bisection_iters; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (barrier.value(model.step_euler(prev, u, mid), field) < 0.0)
          hi = mid;
        else
          lo = mid;
      }
      return t + lo;
    }
    prev = next;
    t += config.step_s;
  }
  return config.horizon_s;
}

TEST(RolloutInterval, HeldControlMatchesPerStepClampBitExactly) {
  // evaluate() holds the control once (clamp + slip angle hoisted out of
  // the march); re-marching with the per-step Control overload must land on
  // the same crossing time bit for bit, clamp being idempotent.
  Rng rng(52);
  const BicycleModel model{};
  const Barrier barrier{BarrierConfig{}};
  const RolloutIntervalConfig config{};
  const RolloutSafeInterval rollout(config, model, barrier);
  for (int trial = 0; trial < 20; ++trial) {
    ObstacleField field;
    const auto count = static_cast<std::size_t>(rng.uniform(1.0, 6.0));
    for (std::size_t i = 0; i < count; ++i)
      field.push_back(Obstacle{{rng.uniform(5.0, 30.0),
                                rng.uniform(-6.0, 6.0)},
                               rng.uniform(0.5, 2.0)});
    const VehicleState s = state_at(0.0, rng.uniform(-2.0, 2.0),
                                    rng.uniform(-0.3, 0.3),
                                    rng.uniform(4.0, 12.0));
    const Control u{rng.uniform(-0.2, 0.2), rng.uniform(-1.0, 1.0)};
    const SafeInterval got = rollout.evaluate(s, u, field);
    if (!got.constrained) continue;
    EXPECT_EQ(got.delta_max_s,
              reference_crossing_time(model, barrier, config, s, u, field))
        << "trial " << trial;
  }
}

TEST(RolloutInterval, CappedSignTestsMatchUncappedMarch) {
  // evaluate() folds the barrier capped at 0 — every test it makes is a
  // sign test — so its crossing times must match the uncapped march bit
  // for bit, across dense fields, states already inside the barrier and
  // controls beyond the actuator limits.
  Rng rng(54);
  const BicycleModel model{};
  int crossed = 0;
  for (int trial = 0; trial < 300; ++trial) {
    BarrierConfig barrier_config;
    barrier_config.heading_gain = rng.uniform(0.0, 2.0);
    const Barrier barrier{barrier_config};
    RolloutIntervalConfig config;
    config.bisection_iters = rng.uniform_int(0, 12);
    const RolloutSafeInterval rollout(config, model, barrier);
    const ObstacleField field = random_field(rng, rng.uniform_int(0, 8));
    const VehicleState s =
        state_at(rng.uniform(-2.0, 6.0), rng.uniform(-3.0, 3.0),
                 rng.uniform(-0.6, 0.6), rng.uniform(0.0, 14.0));
    const Control u{rng.uniform(-0.7, 0.7), rng.uniform(-1.2, 1.2)};
    const SafeInterval got = rollout.evaluate(s, u, field);
    if (!got.constrained) continue;
    const double expected =
        reference_crossing_time(model, barrier, config, s, u, field);
    if (expected < config.horizon_s) ++crossed;
    EXPECT_EQ(bits(got.delta_max_s), bits(expected)) << "trial " << trial;
  }
  EXPECT_GT(crossed, 50);  // the crossing/bisection path is exercised
}

TEST(Barrier, SafeIffNonNegative) {
  const Barrier barrier{BarrierConfig{}};
  const ObstacleField field({Obstacle{{4.0, 0.0}, 1.0}});
  EXPECT_FALSE(barrier.safe(state_at(0, 0, 0, 8), field));  // h < 0: close+head-on
  const ObstacleField far({Obstacle{{30.0, 0.0}, 1.0}});
  EXPECT_TRUE(barrier.safe(state_at(0, 0, 0, 8), far));
}

TEST(Barrier, SurfaceClearanceAndBearing) {
  const Barrier barrier{BarrierConfig{}};
  const Obstacle o{{10.0, 10.0}, 2.0};
  const VehicleState s = state_at(10.0, 0.0, 0.0, 5.0);
  EXPECT_NEAR(barrier.surface_clearance(s, o), 10.0 - 2.0 - 0.9, 1e-12);
  EXPECT_NEAR(barrier.relative_bearing(s, o), 1.5708, 1e-3);  // straight left
}

// --- Safety filter --------------------------------------------------------

SafetyFilter make_filter() {
  return SafetyFilter(SafetyFilterConfig{}, BicycleModel{},
                      Barrier{BarrierConfig{}});
}

TEST(SafetyFilter, PassesThroughWhenFar) {
  const SafetyFilter filter = make_filter();
  const ObstacleField field({Obstacle{{80.0, 0.0}, 1.0}});
  const Control raw{0.1, 0.5};
  const FilterDecision d =
      filter.filter(state_at(0, 0, 0, 8), field, raw);
  EXPECT_FALSE(d.engaged);
  EXPECT_DOUBLE_EQ(d.control.steering, raw.steering);
  EXPECT_DOUBLE_EQ(d.control.throttle, raw.throttle);
  EXPECT_EQ(filter.engagements(), 0u);
}

TEST(SafetyFilter, EngagesOnCollisionCourse) {
  const SafetyFilter filter = make_filter();
  const ObstacleField field({Obstacle{{9.0, 0.0}, 1.0}});
  const FilterDecision d =
      filter.filter(state_at(0, 0, 0, 10), field, Control{0.0, 0.5});
  EXPECT_TRUE(d.engaged);
  EXPECT_NE(d.control.steering, 0.0);  // corrective steering applied
  EXPECT_EQ(filter.engagements(), 1u);
}

TEST(SafetyFilter, CorrectionImprovesWorstCaseBarrier) {
  // Property: the corrective action's predicted min-h must beat holding the
  // raw control on a collision course.
  const SafetyFilter filter = make_filter();
  const BicycleModel model;
  const Barrier barrier{BarrierConfig{}};
  const ObstacleField field({Obstacle{{14.0, 0.5}, 1.0}});
  Rng rng(21);
  for (int trial = 0; trial < 30; ++trial) {
    const VehicleState s =
        state_at(0.0, rng.uniform(-1.0, 1.0), rng.uniform(-0.1, 0.1),
                 rng.uniform(6.0, 11.0));
    const Control raw{rng.uniform(-0.05, 0.05), 0.5};
    const FilterDecision d = filter.filter(s, field, raw);
    if (!d.engaged) continue;
    // Roll both controls forward and compare the worst barrier value.
    auto min_h = [&](const Control& u) {
      double mh = barrier.value(s, field);
      VehicleState cur = s;
      for (int i = 0; i < 30; ++i) {
        cur = model.step_euler(cur, u, 0.02);
        mh = std::min(mh, barrier.value(cur, field));
      }
      return mh;
    };
    EXPECT_GE(min_h(d.control) + 1e-9, min_h(raw));
  }
}

TEST(SafetyFilter, SteersAwayFromSide) {
  const SafetyFilter filter = make_filter();
  // Obstacle slightly left of dead ahead: correction should steer right.
  const ObstacleField field({Obstacle{{9.0, 0.8}, 1.0}});
  const FilterDecision d =
      filter.filter(state_at(0, 0, 0, 10), field, Control{0.0, 0.5});
  ASSERT_TRUE(d.engaged);
  EXPECT_LT(d.control.steering, 0.0);
}

TEST(SafetyFilter, RoadAwareCorrectionStaysOnRoad) {
  // With the road supplied, the corrective candidate that dodges off-road
  // must lose to an on-road candidate.
  const Road road(RoadParams{100.0, 3.0});  // narrow road
  const SafetyFilter filter(SafetyFilterConfig{}, BicycleModel{},
                            Barrier{BarrierConfig{}}, road);
  const ObstacleField field({Obstacle{{9.0, 1.8}, 1.0}});
  // Vehicle near the left edge; dodging further left exits the road.
  const VehicleState s = state_at(0.0, 1.5, 0.0, 9.0);
  const FilterDecision d = filter.filter(s, field, Control{0.0, 0.5});
  ASSERT_TRUE(d.engaged);
  // Roll the corrected control: must not go far off-road.
  const BicycleModel model;
  VehicleState cur = s;
  double worst_margin = road.boundary_margin(cur.position);
  for (int i = 0; i < 30; ++i) {
    cur = model.step_euler(cur, d.control, 0.02);
    worst_margin = std::min(worst_margin, road.boundary_margin(cur.position));
  }
  EXPECT_GT(worst_margin, -0.5);
}

TEST(SafetyFilter, LowSpeedMarginRelaxation) {
  // Crawling toward a moderately distant obstacle must not engage (the
  // deadlock guard), while approaching fast must.
  const SafetyFilter filter = make_filter();
  const ObstacleField field({Obstacle{{9.0, 0.0}, 1.0}});
  const FilterDecision slow =
      filter.filter(state_at(0, 0, 0, 1.0), field, Control{0.0, 0.1});
  const FilterDecision fast =
      filter.filter(state_at(0, 0, 0, 11.0), field, Control{0.0, 0.1});
  EXPECT_FALSE(slow.engaged);
  EXPECT_TRUE(fast.engaged);
}

TEST(SafetyFilter, ConfigContracts) {
  SafetyFilterConfig bad;
  bad.steering_candidates = 2;
  EXPECT_THROW(SafetyFilter(bad, BicycleModel{}, Barrier{BarrierConfig{}}),
               ContractViolation);
  bad = SafetyFilterConfig{};
  bad.horizon_s = 0.0;
  EXPECT_THROW(SafetyFilter(bad, BicycleModel{}, Barrier{BarrierConfig{}}),
               ContractViolation);
}

/// The exhaustive corrective search the filter's branch-and-bound must
/// reproduce: every rollout runs the full horizon (the raw one included),
/// all candidates are scored, and the first strictly best one wins.
class ExhaustiveFilter {
 public:
  ExhaustiveFilter(SafetyFilterConfig config, BicycleModel model,
                   Barrier barrier, std::optional<Road> road)
      : config_(config), model_(model), barrier_(barrier), road_(road) {}

  FilterDecision filter(const VehicleState& state, const ObstacleField& field,
                        const Control& raw) {
    FilterDecision decision;
    decision.h_now = barrier_.value(state, field);
    decision.control = model_.clamp(raw);
    if (raw_min_h(state, field, raw) >= margin_eff(state)) return decision;
    ++engagements;
    decision.engaged = true;
    const double max_steer = model_.params().max_steer;
    double best_score = -std::numeric_limits<double>::infinity();
    Control best = decision.control;
    const int n = config_.steering_candidates;
    for (int i = 0; i < n; ++i) {
      const double steer =
          -max_steer + 2.0 * max_steer * static_cast<double>(i) /
                           static_cast<double>(n - 1);
      for (int brake = 0; brake < (config_.brake_assist ? 2 : 1); ++brake) {
        Control candidate;
        candidate.steering = steer;
        candidate.throttle =
            brake == 0 ? decision.control.throttle : config_.brake_throttle;
        const Eval eval = rollout(state, field, candidate, decision.h_now);
        const double score =
            eval.min_h - config_.off_road_penalty * eval.road_violation -
            1e-3 * std::abs(steer - raw.steering) -
            (brake == 1 ? 1e-4 : 0.0);
        if (score > best_score) {
          best_score = score;
          best = candidate;
        }
      }
    }
    decision.control = best;
    return decision;
  }

  double margin_eff(const VehicleState& state) const {
    return config_.engage_margin *
           std::clamp(state.speed / config_.speed_ref,
                      config_.min_margin_factor, 1.0);
  }

  /// The exact worst barrier value of the raw control's full rollout.
  double raw_min_h(const VehicleState& state, const ObstacleField& field,
                   const Control& raw) const {
    return rollout(state, field, model_.clamp(raw),
                   barrier_.value(state, field))
        .min_h;
  }

  std::uint64_t engagements = 0;

 private:
  struct Eval {
    double min_h = 0.0;
    double road_violation = 0.0;
  };

  Eval rollout(const VehicleState& state, const ObstacleField& field,
               const Control& control, double h_start) const {
    Eval eval;
    eval.min_h = h_start;
    VehicleState s = state;
    const int steps =
        static_cast<int>(std::ceil(config_.horizon_s / config_.step_s));
    for (int i = 0; i < steps; ++i) {
      s = model_.step_euler(s, control, config_.step_s);
      eval.min_h = std::min(eval.min_h, barrier_.value(s, field));
      if (road_) {
        const double margin = road_->boundary_margin(s.position);
        if (margin < 0.0)
          eval.road_violation = std::max(eval.road_violation, -margin);
      }
    }
    return eval;
  }

  SafetyFilterConfig config_;
  BicycleModel model_;
  Barrier barrier_;
  std::optional<Road> road_;
};

TEST(SafetyFilter, BranchAndBoundMatchesExhaustiveSearchBitExactly) {
  // The best-first search prunes rollouts that provably cannot win; it must
  // return the exhaustive search's decision bit for bit, over random
  // states and fields and over every grid shape the search enumerates.
  // Mirrored fields ahead of a centered vehicle with zero raw steering make
  // the +-steer candidates tie exactly, so the lowest-index rule is tested.
  Rng rng(55);
  int calls = 0;
  int engaged = 0;
  int mirrored_engaged = 0;
  for (const int candidates : {3, 17, 33}) {
    for (const bool brake_assist : {false, true}) {
      for (const bool with_road : {false, true}) {
        SafetyFilterConfig config;
        config.steering_candidates = candidates;
        config.brake_assist = brake_assist;
        const std::optional<Road> road =
            with_road ? std::optional<Road>(Road(RoadParams{100.0, 3.5}))
                      : std::nullopt;
        const Barrier barrier{BarrierConfig{}};
        const SafetyFilter filter(config, BicycleModel{}, barrier, road);
        ExhaustiveFilter oracle(config, BicycleModel{}, barrier, road);
        for (int trial = 0; trial < 260; ++trial) {
          const bool mirrored = trial % 4 == 0;
          ObstacleField field;
          VehicleState s;
          Control raw;
          if (mirrored) {
            const double x = rng.uniform(4.0, 14.0);
            const double r = rng.uniform(0.4, 1.5);
            if (trial % 8 == 0) {
              field.push_back(Obstacle{{x, 0.0}, r});
            } else {
              const double y = rng.uniform(0.5, 3.0);
              field.push_back(Obstacle{{x, y}, r});
              field.push_back(Obstacle{{x, -y}, r});
            }
            s = state_at(0.0, 0.0, 0.0, rng.uniform(5.0, 13.0));
            raw = Control{0.0, rng.uniform(-1.0, 1.0)};
          } else {
            field = random_field(rng, rng.uniform_int(0, 8));
            s = state_at(rng.uniform(-2.0, 4.0), rng.uniform(-3.5, 3.5),
                         rng.uniform(-0.5, 0.5), rng.uniform(0.0, 14.0));
            raw = Control{rng.uniform(-0.7, 0.7), rng.uniform(-1.2, 1.2)};
          }
          const FilterDecision got = filter.filter(s, field, raw);
          const FilterDecision want = oracle.filter(s, field, raw);
          ++calls;
          if (want.engaged) {
            ++engaged;
            if (mirrored) ++mirrored_engaged;
          }
          EXPECT_EQ(got.engaged, want.engaged) << "call " << calls;
          EXPECT_EQ(bits(got.control.steering), bits(want.control.steering))
              << "call " << calls;
          EXPECT_EQ(bits(got.control.throttle), bits(want.control.throttle))
              << "call " << calls;
          EXPECT_EQ(bits(got.h_now), bits(want.h_now)) << "call " << calls;
        }
        EXPECT_EQ(filter.engagements(), oracle.engagements);
      }
    }
  }
  // Both paths are exercised in bulk, the exact ties included.
  EXPECT_GT(engaged, calls / 4);
  EXPECT_LT(engaged, calls);
  EXPECT_GT(mirrored_engaged, 100);
}

TEST(SafetyFilter, NonFiniteScoresResolveLikeExhaustiveSearch) {
  // NaN or -inf scores never win the exhaustive `score > best_score` loop;
  // when no candidate wins it keeps the clamped raw control.  The
  // branch-and-bound must drop such candidates and land on the same bits:
  // a NaN or infinite raw steer (NaN / infinite tie-break term), an
  // infinite off-road penalty (inf * 0 = NaN), and a NaN speed on an empty
  // field (NaN engage margin, every score +inf).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Close enough that h_now is already below the engage margin: NaN
  // rollout states never lower min h, so the raw rollout cannot engage.
  const ObstacleField ahead({Obstacle{{3.5, 0.3}, 1.0}});
  const ObstacleField ahead_at_edge({Obstacle{{3.5, 2.5}, 1.0}});
  struct Case {
    double off_road_penalty;
    VehicleState state;
    ObstacleField field;
    Control raw;
  };
  const Case cases[] = {
      {2.0, state_at(0, 0, 0, 10), ahead, Control{nan, 0.5}},
      {2.0, state_at(0, 0, 0, 10), ahead, Control{inf, 0.5}},
      {2.0, state_at(0, 0, 0, 10), ahead, Control{-inf, nan}},
      {inf, state_at(0, 2.5, 0, 10), ahead_at_edge, Control{0.0, 0.5}},
      {2.0, state_at(0, 0, 0, nan), ObstacleField{}, Control{0.1, 0.5}},
  };
  for (const Case& c : cases) {
    SafetyFilterConfig config;
    config.off_road_penalty = c.off_road_penalty;
    const Road road(RoadParams{100.0, 3.0});
    const SafetyFilter filter(config, BicycleModel{}, Barrier{}, road);
    ExhaustiveFilter oracle(config, BicycleModel{}, Barrier{}, road);
    const FilterDecision got = filter.filter(c.state, c.field, c.raw);
    const FilterDecision want = oracle.filter(c.state, c.field, c.raw);
    ASSERT_TRUE(want.engaged);
    EXPECT_TRUE(got.engaged);
    EXPECT_EQ(bits(got.control.steering), bits(want.control.steering));
    EXPECT_EQ(bits(got.control.throttle), bits(want.control.throttle));
    EXPECT_EQ(bits(got.h_now), bits(want.h_now));
    EXPECT_EQ(filter.engagements(), oracle.engagements);
  }
}

TEST(SafetyFilter, PassCertificateIsSound) {
  // Whenever the pass certificate fires, the exact raw rollout must stay at
  // or above the engage margin.  Random calls cover empty, near and far
  // fields, negative, zero, in-range and above-max speeds and throttles
  // past the limits.  Near-miss calls drive a drag-free model dead ahead
  // at an obstacle without saturating the speed, where the reach bound is
  // exact: the obstacle sits a gap beyond the point where the certificate
  // would fire without its slack — the gap within two ulps of the
  // position, or within the throttle's or the heading term's share of the
  // bound.
  Rng rng(77);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const SafetyFilterConfig config;
  const Barrier barrier{BarrierConfig{}};
  BicycleParams drag_free;
  drag_free.drag_coeff = 0.0;
  int calls = 0;
  int certified = 0;
  int near_miss_certified = 0;
  for (const bool near_miss : {false, true}) {
    const BicycleModel model(near_miss ? drag_free : BicycleParams{});
    const SafetyFilter filter(config, model, barrier);
    const ExhaustiveFilter oracle(config, model, barrier, std::nullopt);
    for (int trial = 0; trial < 3000; ++trial) {
      ObstacleField field;
      VehicleState s;
      Control raw;
      if (near_miss) {
        // Heading 0, zero steer: the vehicle moves along +x only, and the
        // obstacle at its own y is met head-on (chi = 0, g = 1 + gain).
        s = state_at(rng.uniform(-300.0, 300.0), rng.uniform(-3.0, 3.0),
                     0.0, rng.uniform(0.0, 14.0));
        raw = Control{0.0, rng.uniform(-1.2, 1.2)};
        const double n = std::ceil(config.horizon_s / config.step_s);
        const double dt = config.step_s;
        const double a =
            std::max(0.0, std::min(raw.throttle, 1.0)) * drag_free.max_accel;
        const double path = dt * (n * s.speed + a * dt * n * (n - 1) / 2.0);
        const double ulp = 0x1p-52 * (1.0 + std::abs(s.position.x));
        const double gap = trial % 2 == 0 ? rng.uniform(-2.0, 2.0) * ulp
                                          : rng.uniform(-1.5, 1.5);
        const double radius = rng.uniform(0.4, 1.5);
        const double worst =
            barrier.config().margin * (1.0 + barrier.config().heading_gain);
        const double distance = oracle.margin_eff(s) + path + radius +
                                barrier.config().body_radius + worst + gap;
        field.push_back(Obstacle{{s.position.x + distance, s.position.y},
                                 radius});
      } else {
        const int kind = trial % 6;
        double speed = rng.uniform(0.0, 25.0);
        if (kind == 1) speed = rng.uniform(-6.0, 0.0);
        if (kind == 2) speed = 0.0;
        if (kind == 3) speed = rng.uniform(25.0, 40.0);
        s = state_at(rng.uniform(-2.0, 4.0), rng.uniform(-3.5, 3.5),
                     rng.uniform(-3.1, 3.1), speed);
        raw = Control{rng.uniform(-0.7, 0.7), rng.uniform(-1.2, 1.2)};
        const int fields = trial % 5;
        if (fields == 1) {
          field = random_field(rng, rng.uniform_int(1, 8));
        } else if (fields >= 2) {
          for (int i = rng.uniform_int(1, 8); i > 0; --i)
            field.push_back(Obstacle{
                {rng.uniform(-60.0, 60.0), rng.uniform(-60.0, 60.0)},
                rng.uniform(0.4, 2.0)});
        }
      }
      const bool fires = filter.certifies_pass(s, field, raw);
      ++calls;
      if (!fires) continue;
      ++certified;
      if (near_miss) ++near_miss_certified;
      EXPECT_GE(oracle.raw_min_h(s, field, raw), oracle.margin_eff(s))
          << "call " << calls;
      EXPECT_FALSE(filter.filter(s, field, raw).engaged) << "call " << calls;
    }
    // Non-finite inputs fall through to the rollout, even where it passes.
    const ObstacleField far({Obstacle{{200.0, 0.0}, 1.0}});
    for (const VehicleState& s :
         {state_at(0, 0, 0, nan), state_at(nan, 0, 0, 5),
          state_at(0, nan, 0, 5), state_at(0, 0, 0, inf),
          state_at(inf, 0, 0, 5), state_at(0, 0, nan, 5)}) {
      EXPECT_FALSE(filter.certifies_pass(s, far, Control{0.0, 0.5}));
      EXPECT_FALSE(filter.certifies_pass(s, ObstacleField{},
                                         Control{0.0, 0.5}));
    }
    EXPECT_FALSE(filter.certifies_pass(state_at(0, 0, 0, 5), far,
                                       Control{0.0, nan}));
  }
  // The certificate carries the bulk of the calls, near misses included.
  EXPECT_GT(certified, calls / 3);
  EXPECT_GT(near_miss_certified, 600);
}

// --- Safe-interval evaluators ----------------------------------------------

TEST(LipschitzInterval, UnconstrainedBeyondSensingRange) {
  const LipschitzSafeInterval eval(LipschitzIntervalConfig{},
                                   Barrier{BarrierConfig{}});
  const ObstacleField far({Obstacle{{60.0, 0.0}, 1.0}});
  EXPECT_FALSE(eval.evaluate(state_at(0, 0, 0, 8), Control{}, far)
                   .constrained);
  EXPECT_FALSE(
      eval.evaluate(state_at(0, 0, 0, 8), Control{}, ObstacleField{})
          .constrained);
}

TEST(LipschitzInterval, CloserObstacleShorterInterval) {
  const LipschitzSafeInterval eval(LipschitzIntervalConfig{},
                                   Barrier{BarrierConfig{}});
  double prev = std::numeric_limits<double>::infinity();
  for (double d = 35.0; d >= 5.0; d -= 5.0) {
    const ObstacleField field({Obstacle{{d, 0.0}, 1.0}});
    const SafeInterval si =
        eval.evaluate(state_at(0, 0, 0, 8), Control{}, field);
    ASSERT_TRUE(si.constrained);
    EXPECT_LT(si.delta_max_s, prev);
    prev = si.delta_max_s;
  }
}

TEST(LipschitzInterval, FasterIsShorter) {
  const LipschitzSafeInterval eval(LipschitzIntervalConfig{},
                                   Barrier{BarrierConfig{}});
  const ObstacleField field({Obstacle{{15.0, 0.0}, 1.0}});
  const double slow =
      eval.evaluate(state_at(0, 0, 0, 4), Control{}, field).delta_max_s;
  const double fast =
      eval.evaluate(state_at(0, 0, 0, 12), Control{}, field).delta_max_s;
  EXPECT_GT(slow, fast);
}

TEST(LipschitzInterval, ControlIndependence) {
  // The certificate bounds over all admissible controls; the current
  // control must not change it.
  const LipschitzSafeInterval eval(LipschitzIntervalConfig{},
                                   Barrier{BarrierConfig{}});
  const ObstacleField field({Obstacle{{15.0, 2.0}, 1.0}});
  const VehicleState s = state_at(0, 0, 0, 8);
  EXPECT_DOUBLE_EQ(
      eval.evaluate(s, Control{0.5, 1.0}, field).delta_max_s,
      eval.evaluate(s, Control{-0.5, -1.0}, field).delta_max_s);
}

TEST(LipschitzInterval, ZeroAtBarrierBoundary) {
  const LipschitzSafeInterval eval(LipschitzIntervalConfig{},
                                   Barrier{BarrierConfig{}});
  // Deep inside the unsafe set: h <= 0 -> Delta_max = 0.
  const ObstacleField field({Obstacle{{2.5, 0.0}, 1.0}});
  const SafeInterval si =
      eval.evaluate(state_at(0, 0, 0, 8), Control{}, field);
  ASSERT_TRUE(si.constrained);
  EXPECT_DOUBLE_EQ(si.delta_max_s, 0.0);
}

TEST(LipschitzInterval, RoadTermBindsWhenHeadingForEdge) {
  LipschitzIntervalConfig config;
  const Road road(RoadParams{100.0, 6.0});
  const LipschitzSafeInterval eval(config, Barrier{BarrierConfig{}}, road);
  const ObstacleField field({Obstacle{{30.0, 0.0}, 1.0}});
  // Heading sharply toward the left edge from near it.
  const SafeInterval toward = eval.evaluate(
      state_at(0, 5.0, 0.8, 9.0), Control{}, field);
  const SafeInterval parallel = eval.evaluate(
      state_at(0, 5.0, 0.0, 9.0), Control{}, field);
  ASSERT_TRUE(toward.constrained && parallel.constrained);
  EXPECT_LT(toward.delta_max_s, parallel.delta_max_s);
}

TEST(LipschitzInterval, ClosedFormInterval) {
  LipschitzIntervalConfig config;
  config.rate_gain = 6.0;
  config.speed_floor = 1.0;
  const LipschitzSafeInterval eval(config, Barrier{BarrierConfig{}});
  EXPECT_NEAR(eval.interval_from_h(5.4, 8.0), 5.4 / (6.0 * 9.0), 1e-12);
  EXPECT_DOUBLE_EQ(eval.interval_from_h(-1.0, 8.0), 0.0);
}

TEST(RolloutInterval, HeadOnCrossingTimeMatchesKinematics) {
  // Head-on at constant speed v toward an obstacle: h reaches 0 when the
  // clearance equals margin*(1+k); crossing time ~ distance/speed.
  RolloutIntervalConfig config;
  const Barrier barrier{BarrierConfig{}};
  const RolloutSafeInterval eval(config, BicycleModel{}, barrier);
  const double d_center = 20.0;
  const ObstacleField field({Obstacle{{d_center, 0.0}, 1.0}});
  const double v = 8.0;
  // Throttle compensating drag to hold speed roughly constant.
  const Control hold{0.0, BicycleParams{}.drag_coeff * v /
                              BicycleParams{}.max_accel};
  const SafeInterval si =
      eval.evaluate(state_at(0, 0, 0, v), hold, field);
  ASSERT_TRUE(si.constrained);
  // h = (d - 1 - 0.9) - 1.2*2 at head-on; h=0 at clearance 2.4 from surface,
  // i.e. at x = 20 - 1 - 0.9 - 2.4 = 15.7 -> t ~ 15.7/8.
  EXPECT_NEAR(si.delta_max_s, 15.7 / v, 0.1);
}

TEST(RolloutInterval, BisectionRefinesCrossing) {
  RolloutIntervalConfig config;
  config.step_s = 0.01;
  const Barrier barrier{BarrierConfig{}};
  const BicycleModel model;
  const RolloutSafeInterval eval(config, model, barrier);
  const ObstacleField field({Obstacle{{12.0, 0.0}, 1.0}});
  const VehicleState s = state_at(0, 0, 0, 9.0);
  const Control u{0.0, 0.2};
  const SafeInterval si = eval.evaluate(s, u, field);
  ASSERT_TRUE(si.constrained);
  // h at the reported crossing time must be ~0 (within integration slack).
  VehicleState cur = s;
  double t = 0.0;
  while (t + 0.001 < si.delta_max_s) {
    cur = model.step_euler(cur, u, 0.001);
    t += 0.001;
  }
  EXPECT_NEAR(barrier.value(cur, field), 0.0, 0.05);
}

TEST(RolloutInterval, HorizonCapsResult) {
  RolloutIntervalConfig config;
  config.horizon_s = 0.5;
  const RolloutSafeInterval eval(config, BicycleModel{},
                                 Barrier{BarrierConfig{}});
  const ObstacleField field({Obstacle{{39.0, 0.0}, 1.0}});  // in range, far
  const SafeInterval si =
      eval.evaluate(state_at(0, 0, 0, 2.0), Control{}, field);
  ASSERT_TRUE(si.constrained);
  EXPECT_DOUBLE_EQ(si.delta_max_s, 0.5);
}

TEST(RolloutInterval, MoreConservativeLipschitzBound) {
  // The Lipschitz certificate must never exceed the rollout time for the
  // same state (it bounds the worst case over all controls).
  const Barrier barrier{BarrierConfig{}};
  const LipschitzSafeInterval lip(LipschitzIntervalConfig{}, barrier);
  const RolloutSafeInterval roll(RolloutIntervalConfig{}, BicycleModel{},
                                 barrier);
  Rng rng(31);
  for (int i = 0; i < 40; ++i) {
    const double d = rng.uniform(6.0, 35.0);
    const ObstacleField field({Obstacle{{d, rng.uniform(-2.0, 2.0)}, 0.8}});
    const VehicleState s = state_at(0, 0, rng.uniform(-0.2, 0.2),
                                    rng.uniform(3.0, 12.0));
    const SafeInterval l = lip.evaluate(s, Control{}, field);
    const SafeInterval r = roll.evaluate(s, Control{0.0, 0.3}, field);
    if (!l.constrained || !r.constrained) continue;
    EXPECT_LE(l.delta_max_s, r.delta_max_s + 1e-9);
  }
}

/// The rollout-phi interval of one query the reference way: evaluate()'s
/// sensing-range check, then the reference march — no horizon certificate,
/// no shared march.
SafeInterval reference_interval(const BicycleModel& model,
                                const Barrier& barrier,
                                const RolloutIntervalConfig& config,
                                const VehicleState& s, const Control& u,
                                const ObstacleField& field) {
  const auto nearest = field.nearest(s.position);
  if (!nearest || nearest->surface_distance - barrier.config().body_radius >
                      config.sensing_range + 1e-9)
    return SafeInterval{false, 0.0};
  return SafeInterval{
      true, reference_crossing_time(model, barrier, config, s, u, field)};
}

/// Answers evaluate() with reference_interval() and keeps the default
/// per-cell evaluate_column(), so a table built from it is the per-cell
/// reference for one built from RolloutSafeInterval.
class ReferenceRollout : public SafeIntervalEvaluator {
 public:
  ReferenceRollout(RolloutIntervalConfig config, BicycleModel model,
                   Barrier barrier)
      : config_(config), model_(std::move(model)), barrier_(barrier) {}

  SafeInterval evaluate(const VehicleState& state, const Control& u,
                        const ObstacleField& field) const override {
    return reference_interval(model_, barrier_, config_, state, u, field);
  }

 private:
  RolloutIntervalConfig config_;
  BicycleModel model_;
  Barrier barrier_;
};

/// A table's cell values, read back from its binary encoding (a fixed
/// header of three u32 and four f64, then the cells in index order).
std::vector<double> table_cells(const DeadlineTable& table) {
  std::string bytes;
  BinaryWriter out(bytes);
  table.encode(out);
  BinaryReader in(bytes);
  for (int i = 0; i < 3; ++i) (void)in.u32();
  for (int i = 0; i < 4; ++i) (void)in.f64();
  std::vector<double> cells(table.cell_count());
  for (double& cell : cells) cell = in.f64();
  return cells;
}

BicycleParams heavy_vehicle_params() {
  return make_scenario("heavy_vehicle").vehicle;
}

TEST(RolloutInterval, TableColumnsMatchPerCellReferenceBitExactly) {
  // A rollout table marches each speed column once and certifies or
  // sign-tests every cell along that march; the reference evaluates every
  // cell on its own with the reference march.  Every cell must agree bit
  // for bit across grids, sensing ranges, speed domains, vehicle models,
  // bisection depths and a horizon longer than one march block.
  struct Case {
    int distance_bins, bearing_bins, speed_bins;
    double sensing_range, max_speed;
    BicycleParams model;
    int bisection_iters;
    double step_s;
  };
  BicycleParams drag_free;
  drag_free.drag_coeff = 0.0;
  const Case cases[] = {
      {41, 25, 21, 40.0, 15.0, BicycleParams{}, 12, 0.005},
      {9, 7, 5, 30.0, 25.0, heavy_vehicle_params(), 0, 0.005},
      {13, 9, 6, 60.0, 15.0, heavy_vehicle_params(), 12, 0.005},
      {11, 9, 5, 50.0, 8.0, drag_free, 0, 0.005},
      {7, 5, 4, 40.0, 20.0, BicycleParams{}, 12, 0.001},
  };
  const Barrier barrier{BarrierConfig{}};
  const double body = BarrierConfig{}.body_radius;
  for (const Case& c : cases) {
    RolloutIntervalConfig rollout;
    rollout.sensing_range = c.sensing_range;
    rollout.bisection_iters = c.bisection_iters;
    rollout.step_s = c.step_s;
    DeadlineTableConfig grid;
    grid.distance_bins = c.distance_bins;
    grid.bearing_bins = c.bearing_bins;
    grid.speed_bins = c.speed_bins;
    grid.max_distance = c.sensing_range;
    grid.max_speed = c.max_speed;
    const BicycleModel model(c.model);
    const std::vector<double> got = table_cells(DeadlineTable(
        grid, RolloutSafeInterval(rollout, model, barrier), body));
    const std::vector<double> want = table_cells(
        DeadlineTable(grid, ReferenceRollout(rollout, model, barrier), body));
    ASSERT_EQ(got.size(), want.size());
    int crossed = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (want[i] > 0.0 && want[i] < rollout.horizon_s) ++crossed;
      EXPECT_EQ(bits(got[i]), bits(want[i]))
          << c.distance_bins << "x" << c.bearing_bins << "x" << c.speed_bins
          << " range " << c.sensing_range << ": cell (d " 
          << i / static_cast<std::size_t>(c.speed_bins * c.bearing_bins)
          << ", chi " << i / static_cast<std::size_t>(c.speed_bins) %
                             static_cast<std::size_t>(c.bearing_bins)
          << ", v " << i % static_cast<std::size_t>(c.speed_bins) << ")";
    }
    EXPECT_GT(crossed, 0);  // the bisected crossing path is exercised
  }
}

TEST(RolloutInterval, ColumnOfAnyStartMatchesPerCellReference) {
  // evaluate_column() against evaluate() and the reference cell by cell,
  // from start states off the origin, under held steering and throttle,
  // with cells beyond the sensing range and cells already inside the
  // barrier.
  Rng rng(58);
  const BicycleModel model{};
  int crossed = 0;
  for (int trial = 0; trial < 80; ++trial) {
    BarrierConfig barrier_config;
    barrier_config.heading_gain = rng.uniform(0.0, 2.0);
    const Barrier barrier{barrier_config};
    RolloutIntervalConfig config;
    config.bisection_iters = rng.uniform_int(0, 12);
    const RolloutSafeInterval rollout(config, model, barrier);
    const VehicleState s =
        state_at(rng.uniform(-50.0, 50.0), rng.uniform(-3.0, 3.0),
                 rng.uniform(-3.1, 3.1), rng.uniform(0.0, 16.0));
    const Control u{rng.uniform(-0.7, 0.7), rng.uniform(-1.2, 1.2)};
    std::vector<Obstacle> column;
    for (int i = rng.uniform_int(1, 40); i > 0; --i)
      column.push_back(Obstacle{
          s.position + Vec2::from_polar(rng.uniform(0.0, 45.0),
                                        rng.uniform(-3.2, 3.2)),
          rng.uniform(0.4, 2.0)});
    std::vector<SafeInterval> out(column.size());
    rollout.evaluate_column(s, u, column, out);
    for (std::size_t i = 0; i < column.size(); ++i) {
      const ObstacleField field({column[i]});
      const SafeInterval want =
          reference_interval(model, barrier, config, s, u, field);
      const SafeInterval one = rollout.evaluate(s, u, field);
      if (want.constrained && want.delta_max_s > 0.0 &&
          want.delta_max_s < config.horizon_s)
        ++crossed;
      EXPECT_EQ(out[i].constrained, want.constrained) << trial << "/" << i;
      EXPECT_EQ(bits(out[i].delta_max_s), bits(want.delta_max_s))
          << trial << "/" << i;
      EXPECT_EQ(one.constrained, want.constrained) << trial << "/" << i;
      EXPECT_EQ(bits(one.delta_max_s), bits(want.delta_max_s))
          << trial << "/" << i;
    }
  }
  EXPECT_GT(crossed, 50);
}

TEST(RolloutInterval, HorizonCertificateIsSound) {
  // Whenever the horizon certificate fires, the full reference march must
  // never cross.  Each trial drives straight along +x at an obstacle met
  // head-on (chi = 0, g = 1 + gain), finds the obstacle position where the
  // certificate starts to fire, and checks the five positions within two
  // ulps of it.  Drag-free trials make the reach bound exact in real
  // arithmetic, and starts up to ~8e6 m out make each step's coordinate
  // rounding (the same way every step) add up to far more than the
  // barrier's own slack: only the reach bound's slack keeps them sound.
  Rng rng(59);
  BicycleParams drag_free;
  drag_free.drag_coeff = 0.0;
  const Barrier barrier{BarrierConfig{}};
  int fired = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const BicycleModel model(trial % 3 == 0   ? BicycleParams{}
                             : trial % 3 == 1 ? drag_free
                                              : heavy_vehicle_params());
    RolloutIntervalConfig config;
    config.sensing_range = 500.0;  // every obstacle below is in range
    config.bisection_iters = trial % 2 == 0 ? 12 : 0;
    const RolloutSafeInterval rollout(config, model, barrier);
    int steps = 0;
    for (double t = 0.0; t < config.horizon_s; t += config.step_s) ++steps;
    const double far = std::ldexp(rng.uniform(1.0, 2.0), rng.uniform_int(0, 22));
    const VehicleState s = state_at(trial % 4 < 2 ? far : -far,
                                    rng.uniform(-3.0, 3.0), 0.0,
                                    rng.uniform(0.0, 14.0));
    const Control u{0.0, rng.uniform(-0.5, 1.2)};
    const double radius = rng.uniform(0.4, 1.5);
    const double reach =
        model.reach(s, model.clamp(u), steps, config.step_s);
    const auto obstacle_at = [&](double x) {
      return Obstacle{{x, s.position.y}, radius};
    };
    const auto fires = [&](double x) {
      return barrier.value_and_floor(s, ObstacleField({obstacle_at(x)}), reach)
                 .floor >= 0.0;
    };
    // Bisect the obstacle's x down to the first double that fires.
    double lo = s.position.x;
    double hi = s.position.x + 200.0;
    ASSERT_FALSE(fires(lo));
    ASSERT_TRUE(fires(hi));
    for (;;) {
      const double mid = lo + 0.5 * (hi - lo);
      if (mid <= lo || mid >= hi) break;
      (fires(mid) ? hi : lo) = mid;
    }
    std::vector<Obstacle> column;
    double x = hi;
    for (int k = 0; k < 2; ++k) x = std::nextafter(x, -HUGE_VAL);
    for (int k = -2; k <= 2; ++k, x = std::nextafter(x, HUGE_VAL))
      column.push_back(obstacle_at(x));
    std::vector<SafeInterval> out(column.size());
    rollout.evaluate_column(s, u, column, out);
    for (std::size_t i = 0; i < column.size(); ++i) {
      const ObstacleField field({column[i]});
      const SafeInterval want =
          reference_interval(model, barrier, config, s, u, field);
      ASSERT_TRUE(want.constrained);
      if (fires(column[i].center.x)) {
        ++fired;
        EXPECT_EQ(bits(want.delta_max_s), bits(config.horizon_s))
            << "trial " << trial << ": certified, yet the march crosses";
      }
      EXPECT_EQ(bits(out[i].delta_max_s), bits(want.delta_max_s))
          << "trial " << trial << " cell " << i;
      EXPECT_EQ(bits(rollout.evaluate(s, u, field).delta_max_s),
                bits(want.delta_max_s))
          << "trial " << trial << " cell " << i;
    }
  }
  EXPECT_EQ(fired, 600 * 3);  // the firing point and the two ulps above it
}

TEST(RolloutInterval, ConfigContracts) {
  const Barrier barrier{BarrierConfig{}};
  RolloutIntervalConfig too_fine;
  too_fine.step_s = too_fine.horizon_s * 1e-8;  // 10^8 steps
  EXPECT_THROW(RolloutSafeInterval(too_fine, BicycleModel{}, barrier),
               ContractViolation);
  RolloutIntervalConfig endless;
  endless.horizon_s = std::numeric_limits<double>::infinity();
  EXPECT_THROW(RolloutSafeInterval(endless, BicycleModel{}, barrier),
               ContractViolation);
  const RolloutSafeInterval rollout(RolloutIntervalConfig{}, BicycleModel{},
                                    barrier);
  std::vector<Obstacle> column(3, Obstacle{{10.0, 0.0}, 1.0});
  std::vector<SafeInterval> out(2);
  EXPECT_THROW(rollout.evaluate_column(VehicleState{}, Control{}, column, out),
               ContractViolation);
}

// --- Deadline lookup table ---------------------------------------------------

TEST(DeadlineTable, MatchesSourceOnProbes) {
  const Barrier barrier{BarrierConfig{}};
  const LipschitzSafeInterval source(LipschitzIntervalConfig{}, barrier);
  const DeadlineTable table(DeadlineTableConfig{}, source,
                            BarrierConfig{}.body_radius);
  Rng rng(33);
  for (int i = 0; i < 200; ++i) {
    const double d = rng.uniform(1.0, 38.0);
    const double chi = rng.uniform(-3.0, 3.0);
    const double v = rng.uniform(0.5, 14.0);
    const Obstacle o{Vec2::from_polar(d + 0.8 + 0.9, chi), 0.8};
    const ObstacleField field({o});
    VehicleState s;
    s.speed = v;
    const double truth =
        source.evaluate(s, Control{}, field).delta_max_s;
    const double approx = table.sample(d, chi, v);
    // Multilinear interpolation on a Lipschitz-smooth map: small error.
    EXPECT_NEAR(approx, truth, 0.06 + 0.1 * truth);
  }
}

TEST(DeadlineTable, EvaluateReducesNearestObstacle) {
  const Barrier barrier{BarrierConfig{}};
  const LipschitzSafeInterval source(LipschitzIntervalConfig{}, barrier);
  const DeadlineTable table(DeadlineTableConfig{}, source,
                            BarrierConfig{}.body_radius);
  const ObstacleField field({Obstacle{{15.0, 1.0}, 0.8}});
  const VehicleState s = state_at(0, 0, 0, 8);
  const SafeInterval direct = source.evaluate(s, Control{}, field);
  const SafeInterval proxied = table.evaluate(s, Control{}, field);
  ASSERT_TRUE(direct.constrained);
  ASSERT_TRUE(proxied.constrained);
  EXPECT_NEAR(proxied.delta_max_s, direct.delta_max_s,
              0.05 + 0.1 * direct.delta_max_s);
}

TEST(DeadlineTable, UnconstrainedBeyondDomain) {
  const Barrier barrier{BarrierConfig{}};
  const LipschitzSafeInterval source(LipschitzIntervalConfig{}, barrier);
  const DeadlineTable table(DeadlineTableConfig{}, source,
                            BarrierConfig{}.body_radius);
  const ObstacleField far({Obstacle{{80.0, 0.0}, 1.0}});
  EXPECT_FALSE(
      table.evaluate(state_at(0, 0, 0, 8), Control{}, far).constrained);
}

TEST(DeadlineTable, PreservesDistanceMonotonicity) {
  const Barrier barrier{BarrierConfig{}};
  const LipschitzSafeInterval source(LipschitzIntervalConfig{}, barrier);
  const DeadlineTable table(DeadlineTableConfig{}, source,
                            BarrierConfig{}.body_radius);
  double prev = -1.0;
  for (double d = 2.0; d <= 38.0; d += 2.0) {
    const double v = table.sample(d, 0.0, 8.0);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(DeadlineTable, ConfigContracts) {
  const Barrier barrier{BarrierConfig{}};
  const LipschitzSafeInterval source(LipschitzIntervalConfig{}, barrier);
  DeadlineTableConfig bad;
  bad.distance_bins = 1;
  EXPECT_THROW(DeadlineTable(bad, source, 0.9), ContractViolation);
  // Build enforces the same domain contract decode() does, so every
  // buildable table round-trips: degenerate radii fail up front.
  DeadlineTableConfig zero_obstacle;
  zero_obstacle.obstacle_radius = 0.0;
  EXPECT_THROW(DeadlineTable(zero_obstacle, source, 0.9), ContractViolation);
  EXPECT_THROW(DeadlineTable(DeadlineTableConfig{}, source, 0.0),
               ContractViolation);
}

// --- Serialization ----------------------------------------------------------

/// A small real table, shared by the encode/decode hardening tests below.
DeadlineTable small_table() {
  const Barrier barrier{BarrierConfig{}};
  const LipschitzSafeInterval source(LipschitzIntervalConfig{}, barrier);
  DeadlineTableConfig config;
  config.distance_bins = 3;
  config.bearing_bins = 3;
  config.speed_bins = 2;
  return DeadlineTable(config, source, BarrierConfig{}.body_radius);
}

std::string encoded(const DeadlineTable& table) {
  std::string payload;
  BinaryWriter out(payload);
  table.encode(out);
  return payload;
}

DeadlineTable decoded(const std::string& payload) {
  BinaryReader in{std::string_view(payload)};
  return DeadlineTable::decode(in);
}

/// A hand-built payload in the encode() layout: shape, the four domain
/// scalars, then `cells` zero cells (or `cell` at index `at`).
std::string payload_of(std::uint32_t distance_bins, std::uint32_t bearing_bins,
                       std::uint32_t speed_bins, double max_distance,
                       double max_speed, double obstacle_radius,
                       double body_radius, std::size_t cells,
                       std::size_t at = 0, double cell = 0.0) {
  std::string payload;
  BinaryWriter out(payload);
  out.u32(distance_bins);
  out.u32(bearing_bins);
  out.u32(speed_bins);
  out.f64(max_distance);
  out.f64(max_speed);
  out.f64(obstacle_radius);
  out.f64(body_radius);
  for (std::size_t i = 0; i < cells; ++i) out.f64(i == at ? cell : 0.0);
  return payload;
}

TEST(DeadlineTableIo, RoundTripsExactly) {
  const DeadlineTable table = small_table();
  const std::string payload = encoded(table);
  const DeadlineTable loaded = decoded(payload);
  EXPECT_EQ(encoded(loaded), payload);
  EXPECT_EQ(loaded.body_radius(), BarrierConfig{}.body_radius);
  EXPECT_EQ(loaded.cell_count(), table.cell_count());
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const double d = rng.uniform(0.0, 45.0);
    const double chi = rng.uniform(-3.5, 3.5);
    const double v = rng.uniform(0.0, 16.0);
    EXPECT_EQ(loaded.sample(d, chi, v), table.sample(d, chi, v));
  }
}

TEST(DeadlineTableIo, DecodeRejectsCorruptInput) {
  const auto decode_fails = [](const std::string& payload) {
    EXPECT_THROW(decoded(payload), ContractViolation)
        << payload.size() << " bytes";
  };

  // Wrong shape: degenerate grids, a dimension over the 100000-bin cap,
  // and a shape whose cell count wraps size_t (4194304^3 = 2^66 -> 0) —
  // it must throw, never construct a table that later samples out of
  // bounds.
  decode_fails(payload_of(1, 2, 2, 40, 15, 0.8, 0.9, 4));
  decode_fails(payload_of(2, 0, 2, 40, 15, 0.8, 0.9, 0));
  decode_fails(payload_of(100001, 2, 2, 40, 15, 0.8, 0.9, 0));
  decode_fails(payload_of(4194304, 4194304, 4194304, 40, 15, 0.8, 0.9, 0));
  // A shape that disagrees with the cell block.
  decode_fails(payload_of(2, 2, 2, 40, 15, 0.8, 0.9, 7));
  decode_fails(payload_of(2, 2, 2, 40, 15, 0.8, 0.9, 9));
  // Non-positive domain scalars must not pass into episodes.
  decode_fails(payload_of(2, 2, 2, -40, 15, 0.8, 0.9, 8));
  decode_fails(payload_of(2, 2, 2, 40, 0, 0.8, 0.9, 8));
  decode_fails(payload_of(2, 2, 2, 40, 15, -0.8, 0.9, 8));
  decode_fails(payload_of(2, 2, 2, 40, 15, 0.8, 0, 8));
  // Non-finite scalars and cells.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  decode_fails(payload_of(2, 2, 2, nan, 15, 0.8, 0.9, 8));
  decode_fails(payload_of(2, 2, 2, 40, inf, 0.8, 0.9, 8));
  decode_fails(payload_of(2, 2, 2, 40, 15, 0.8, 0.9, 8, 3, inf));
  decode_fails(payload_of(2, 2, 2, 40, 15, 0.8, 0.9, 8, 5, nan));

  // Truncation: inside the cell block the byte count no longer matches
  // the shape; inside the header the reader itself refuses to overrun.
  const std::string good = encoded(small_table());
  decode_fails(good.substr(0, good.size() - 8));
  decode_fails(good.substr(0, good.size() / 2));
  decode_fails(good + std::string(8, '\0'));
  EXPECT_THROW(decoded(good.substr(0, 20)), BinaryIoError);
  EXPECT_THROW(decoded(std::string()), BinaryIoError);
  EXPECT_THROW(decoded("not-a-table 9"), BinaryIoError);

  // The untampered payload and a hand-built well-formed one still decode
  // (the guards reject corruption, not legitimate tables).
  EXPECT_NO_THROW(decoded(good));
  EXPECT_NO_THROW(decoded(payload_of(2, 2, 2, 40, 15, 0.8, 0.9, 8)));
}

}  // namespace
}  // namespace seo
