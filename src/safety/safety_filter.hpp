// The safety filter Psi of the paper's eq. (2): passes raw control actions
// through unchanged while the system is (and will remain) safe, and applies
// the corrective policy psi(x; U) otherwise.
//
// Corrective policy: a predictive steering shield in the spirit of
// ShieldNN [19] — it rolls the KBM forward under candidate steering actions
// from the admissible set U and picks the candidate that maximizes the
// worst-case barrier value over the prediction horizon (optionally adding
// brake assistance).  Only the steering dimension is filtered, exactly like
// the paper's controller shield for steering angle outputs.
//
// The filter returns the same bits as rolling the raw control and every
// candidate out to the horizon and keeping the first strictly best score:
//
//  * Pass certificate: a reach bound (BicycleModel::reach — how far the
//    raw control's Euler steps can carry the vehicle, from the start speed,
//    the throttle's acceleration and max_speed) widens the barrier's
//    trig-skip bound into a floor over a disc (Barrier::value_and_floor,
//    the same pass that computes h_now).  When that floor clears the
//    engage margin the raw rollout cannot dip below it, and the call
//    passes without rolling out.  Otherwise:
//  * The raw rollout stops as soon as its running min h drops below the
//    engage margin — min h never rises, so the call engages either way.
//  * Candidates are advanced best-first: one step at a time, always the
//    candidate whose partial score is highest (ties to the lowest grid
//    index).  A partial score bounds the final one from above in floating
//    point — min h never rises, the road violation never falls, and every
//    operation of the score is monotone under rounding — so the first
//    candidate to reach the horizon is the exhaustive search's argmax.
//  * Each step folds the barrier with the running min h as its cap
//    (Barrier::value), so obstacles that cannot lower it skip their trig.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "dynamics/bicycle.hpp"
#include "dynamics/obstacle.hpp"
#include "dynamics/road.hpp"
#include "safety/barrier.hpp"

namespace seo {

struct SafetyFilterConfig {
  double horizon_s = 0.6;       ///< prediction horizon for engagement
  double step_s = 0.02;         ///< rollout step
  double engage_margin = 0.7;   ///< engage when predicted min h dips below
  /// The effective engage margin scales with speed (the certificate
  /// distance shrinks as the vehicle slows): margin * clamp(v/speed_ref,
  /// min_margin_factor, 1).  Prevents low-speed engagement deadlock.
  double speed_ref = 8.0;
  double min_margin_factor = 0.3;
  int steering_candidates = 17; ///< grid resolution over [-max_steer, max]
  bool brake_assist = true;     ///< also consider braking while correcting
  double brake_throttle = -0.6; ///< throttle used by brake assistance
  /// Penalty subtracted from a corrective candidate's score per meter it
  /// ends up beyond the road edge (admissible set U excludes leaving the
  /// road); only used when a Road is supplied.
  double off_road_penalty = 2.0;
};

/// Result of one filtering decision.
struct FilterDecision {
  Control control{};     ///< u' = Psi(x, u)
  bool engaged = false;  ///< true when psi overrode the raw control
  double h_now = 0.0;    ///< barrier value at the decision state
};

class SafetyFilter {
 public:
  /// `road`: when supplied, corrective candidates that would leave the
  /// drivable band are penalized (never preferred over on-road candidates
  /// of comparable safety).
  SafetyFilter(SafetyFilterConfig config, BicycleModel model, Barrier barrier,
               std::optional<Road> road = std::nullopt);

  const SafetyFilterConfig& config() const { return config_; }
  const Barrier& barrier() const { return barrier_; }

  /// Filters a raw control: returns it unchanged when its rollout stays
  /// clear of the barrier, otherwise substitutes the corrective action.
  /// Allocation-free: the search scratch is sized at construction, so (like
  /// the engagement counter) a filter serves one caller at a time.
  FilterDecision filter(const VehicleState& state, const ObstacleField& field,
                        const Control& raw) const;

  /// True when filter() passes `raw` on the pass certificate alone,
  /// without rolling it out (see the file comment).
  bool certifies_pass(const VehicleState& state, const ObstacleField& field,
                      const Control& raw) const;

  /// Cumulative number of engagements since construction.
  std::uint64_t engagements() const { return engagements_; }

 private:
  /// One corrective candidate's partial rollout.
  struct Candidate {
    Control control{};
    HeldControl held{};           ///< set on the first step
    VehicleState state{};
    double min_h = 0.0;           ///< worst barrier value so far
    double road_violation = 0.0;  ///< worst off-road excursion so far [m]
    double steer_cost = 0.0;      ///< distance-to-raw tie-break term
    double brake_cost = 0.0;      ///< brake-assist tie-break term
    double bound = 0.0;           ///< score() of the partial rollout
    int steps = 0;                ///< rollout steps taken
  };

  /// The engage margin at `state`'s speed.
  double margin_eff(const VehicleState& state) const;
  /// The corrective score; of a partial rollout, an upper bound on the
  /// score of the full one.
  double score(const Candidate& c) const;
  /// Advances a candidate by one rollout step and refreshes its bound.
  void advance(Candidate& c, const ObstacleField& field) const;

  SafetyFilterConfig config_;
  BicycleModel model_;
  Barrier barrier_;
  std::optional<Road> road_;
  int steps_ = 0;  ///< rollout steps per horizon
  mutable std::uint64_t engagements_ = 0;
  mutable std::vector<Candidate> candidates_;   ///< in grid order
  mutable std::vector<std::size_t> frontier_;  ///< max-heap of live indices
};

}  // namespace seo
