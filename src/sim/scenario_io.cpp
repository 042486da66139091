#include "sim/scenario_io.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "sim/scenario_library.hpp"
#include "util/expect.hpp"
#include "util/numeric.hpp"

namespace seo {

namespace {

OptimizerMode mode_from_string(const std::string& name) {
  if (name == "local") return OptimizerMode::kNone;
  if (name == "gating") return OptimizerMode::kGating;
  if (name == "offload") return OptimizerMode::kOffload;
  if (name == "scaled") return OptimizerMode::kScaled;
  throw ContractViolation("unknown optimizer mode: " + name);
}

PerceptionModelSpec scaled_model_from_string(const std::string& name) {
  if (name == "resnet50") return resnet50_px2();
  if (name == "resnet152") return resnet152_px2();
  if (name == "vae") return vae_encoder_px2();
  throw ContractViolation("unknown scaled model: " + name +
                          " (resnet50|resnet152|vae)");
}

std::string fmt_value(double v) {
  // Shortest representation that parses back to exactly `v`, so applying
  // the generated template is a true identity (obstacle_region = 1/3 must
  // not quietly become 0.333333).  Locale-independent (util/numeric): a
  // comma-decimal LC_NUMERIC must not corrupt generated templates.
  return format_double(v);
}
std::string fmt_value(int v) { return std::to_string(v); }
std::string fmt_value(bool v) { return v ? "true" : "false"; }

/// One recognized key: how to apply it and how to render its default.
struct KeyDef {
  const char* section;  ///< template section header; nullptr = same section
  std::string key;
  std::string comment;
  std::function<void(const KeyValueConfig&, ScenarioConfig&)> apply;
  std::function<std::string(ScenarioConfig&)> preview;
};

KeyDef dbl(const char* section, const char* key,
           std::function<double&(ScenarioConfig&)> ref,
           const char* comment) {
  return KeyDef{
      section, key, comment,
      [key, ref](const KeyValueConfig& c, ScenarioConfig& s) {
        ref(s) = c.get_double(key, ref(s));
      },
      [ref](ScenarioConfig& s) { return fmt_value(ref(s)); }};
}

KeyDef integer(const char* section, const char* key,
               std::function<int&(ScenarioConfig&)> ref,
               const char* comment) {
  return KeyDef{
      section, key, comment,
      [key, ref](const KeyValueConfig& c, ScenarioConfig& s) {
        ref(s) = c.get_int(key, ref(s));
      },
      [ref](ScenarioConfig& s) { return fmt_value(ref(s)); }};
}

KeyDef boolean(const char* section, const char* key,
               std::function<bool&(ScenarioConfig&)> ref,
               const char* comment) {
  return KeyDef{
      section, key, comment,
      [key, ref](const KeyValueConfig& c, ScenarioConfig& s) {
        ref(s) = c.get_bool(key, ref(s));
      },
      [ref](ScenarioConfig& s) { return fmt_value(ref(s)); }};
}

/// The single source of truth for the recognized key set.  Order is
/// template order AND application order: `scenario` first (replaces the
/// whole config with a library base), `tau_ms` second (retimes the rig's
/// sensor periods), then refinements.
const std::vector<KeyDef>& key_registry() {
  static const std::vector<KeyDef> defs = [] {
    std::vector<KeyDef> k;

    k.push_back(KeyDef{
        "Scenario library base (see `sweep --list` / README)", "scenario",
        "named library rig this config starts from",
        [](const KeyValueConfig& c, ScenarioConfig& s) {
          if (c.contains("scenario")) s = make_scenario(c.get_string("scenario"));
        },
        [](const ScenarioConfig&) { return std::string("paper_default"); }});

    k.push_back(KeyDef{
        "Timing", "tau_ms", "base period [ms] (paper: 20; Table I: 25)",
        [](const KeyValueConfig& c, ScenarioConfig& s) {
          if (!c.contains("tau_ms")) return;
          const double tau_s = c.get_double("tau_ms", 20.0) * 1e-3;
          SEO_EXPECT(tau_s > 0.0);
          // Rescale the rig's sensor periods so "p = k*tau" relationships
          // survive the retiming — crucially WITHOUT replacing the
          // pipeline set, so custom rigs (e.g. fleet_rig's radar + lidar)
          // keep their pipelines through a tau_ms sweep axis.
          for (auto& pipeline : s.pipelines) {
            const double multiple = pipeline.sensor.period_s / s.tau_s;
            const double rounded = std::round(multiple);
            pipeline.sensor.period_s =
                std::abs(multiple - rounded) < 1e-9 && rounded >= 1.0
                    ? rounded * tau_s   // exact harmonic: keep p = k*tau
                    : multiple * tau_s; // off-harmonic: scale proportionally
          }
          s.tau_s = tau_s;
        },
        [](ScenarioConfig& s) { return fmt_value(s.tau_s * 1e3); }});
    k.push_back(integer(nullptr, "deadline_cap",
                        [](ScenarioConfig& s) -> int& { return s.deadline_cap; },
                        "delta_max clamp (paper Fig. 6 domain)"));

    k.push_back(dbl("Route", "road_length",
                    [](ScenarioConfig& s) -> double& { return s.road.length; },
                    "route length [m] (paper: 100)"));
    k.push_back(dbl(nullptr, "road_half_width",
                    [](ScenarioConfig& s) -> double& { return s.road.half_width; },
                    "drivable half-width [m]"));

    k.push_back(integer("Obstacles", "obstacles",
                        [](ScenarioConfig& s) -> int& { return s.obstacle_count; },
                        "number of obstacles in the final region"));
    k.push_back(dbl(nullptr, "obstacle_region",
                    [](ScenarioConfig& s) -> double& { return s.obstacle_region; },
                    "final fraction of the route they occupy"));
    k.push_back(dbl(nullptr, "obstacle_lateral_max",
                    [](ScenarioConfig& s) -> double& { return s.obstacle_lateral_max; },
                    "|y| placement bound [m]"));
    k.push_back(dbl(nullptr, "obstacle_radius",
                    [](ScenarioConfig& s) -> double& { return s.obstacle_radius; },
                    "obstacle disc radius [m]"));
    k.push_back(dbl(nullptr, "min_obstacle_gap",
                    [](ScenarioConfig& s) -> double& { return s.min_obstacle_gap; },
                    "min longitudinal spacing [m]"));
    k.push_back(boolean(nullptr, "moving_obstacles",
                        [](ScenarioConfig& s) -> bool& { return s.moving_obstacles; },
                        "pace obstacles laterally (dynamic environment)"));
    k.push_back(dbl(nullptr, "obstacle_osc_amplitude",
                    [](ScenarioConfig& s) -> double& { return s.obstacle_osc_amplitude; },
                    "lateral pacing half-range [m]"));
    k.push_back(dbl(nullptr, "obstacle_osc_period",
                    [](ScenarioConfig& s) -> double& { return s.obstacle_osc_period; },
                    "pacing period [s]"));
    k.push_back(dbl(nullptr, "obstacle_drift_speed",
                    [](ScenarioConfig& s) -> double& { return s.obstacle_drift_speed; },
                    "longitudinal drift [m/s]"));

    k.push_back(boolean("Control / optimization", "filtered",
                        [](ScenarioConfig& s) -> bool& { return s.filtered; },
                        "safety filter active?"));
    k.push_back(KeyDef{
        nullptr, "mode", "local | gating | offload | scaled",
        [](const KeyValueConfig& c, ScenarioConfig& s) {
          if (c.contains("mode")) s.mode = mode_from_string(c.get_string("mode"));
        },
        [](const ScenarioConfig& s) { return std::string(to_string(s.mode)); }});
    k.push_back(dbl(nullptr, "initial_speed",
                    [](ScenarioConfig& s) -> double& { return s.initial_speed; },
                    "speed at the start line [m/s]"));
    k.push_back(dbl(nullptr, "max_episode_s",
                    [](ScenarioConfig& s) -> double& { return s.max_episode_s; },
                    "episode clock limit [s]"));
    k.push_back(integer(nullptr, "physics_substeps",
                        [](ScenarioConfig& s) -> int& { return s.physics_substeps; },
                        "integrator substeps per base period"));
    k.push_back(boolean(nullptr, "use_lookup_table",
                        [](ScenarioConfig& s) -> bool& { return s.use_lookup_table; },
                        "probe T(x,u) vs. exact evaluator"));
    k.push_back(dbl(nullptr, "target_speed",
                    [](ScenarioConfig& s) -> double& { return s.policy.target_speed; },
                    "cruise speed [m/s]"));
    k.push_back(dbl(nullptr, "lookahead",
                    [](ScenarioConfig& s) -> double& { return s.policy.lookahead; },
                    "pure-pursuit lookahead [m]"));
    k.push_back(dbl(nullptr, "lateral_clearance",
                    [](ScenarioConfig& s) -> double& { return s.policy.lateral_clearance; },
                    "passing distance from obstacle center [m]"));
    k.push_back(dbl(nullptr, "steer_noise",
                    [](ScenarioConfig& s) -> double& { return s.policy.steer_noise; },
                    "1-sigma steering dither [rad]"));

    k.push_back(dbl("Vehicle", "vehicle_max_steer",
                    [](ScenarioConfig& s) -> double& { return s.vehicle.max_steer; },
                    "steering limit [rad]"));
    k.push_back(dbl(nullptr, "vehicle_max_accel",
                    [](ScenarioConfig& s) -> double& { return s.vehicle.max_accel; },
                    "throttle=+1 acceleration [m/s^2]"));
    k.push_back(dbl(nullptr, "vehicle_max_brake",
                    [](ScenarioConfig& s) -> double& { return s.vehicle.max_brake; },
                    "throttle=-1 deceleration [m/s^2]"));
    k.push_back(dbl(nullptr, "vehicle_max_speed",
                    [](ScenarioConfig& s) -> double& { return s.vehicle.max_speed; },
                    "saturation speed [m/s]"));

    k.push_back(dbl("Safety calibration", "barrier_margin",
                    [](ScenarioConfig& s) -> double& { return s.barrier.margin; },
                    "base required clearance [m]"));
    k.push_back(dbl(nullptr, "barrier_body_radius",
                    [](ScenarioConfig& s) -> double& { return s.barrier.body_radius; },
                    "ego body disc radius [m]"));
    k.push_back(dbl(nullptr, "barrier_heading_gain",
                    [](ScenarioConfig& s) -> double& { return s.barrier.heading_gain; },
                    "head-on clearance inflation factor"));
    k.push_back(dbl(nullptr, "filter_horizon",
                    [](ScenarioConfig& s) -> double& { return s.filter.horizon_s; },
                    "filter prediction horizon [s]"));
    k.push_back(dbl(nullptr, "filter_engage_margin",
                    [](ScenarioConfig& s) -> double& { return s.filter.engage_margin; },
                    "engage when predicted h dips below"));
    k.push_back(integer(nullptr, "filter_candidates",
                        [](ScenarioConfig& s) -> int& { return s.filter.steering_candidates; },
                        "corrective steering grid resolution"));
    k.push_back(boolean(nullptr, "brake_assist",
                        [](ScenarioConfig& s) -> bool& { return s.filter.brake_assist; },
                        "filter may also brake while correcting"));
    k.push_back(dbl(nullptr, "sensing_range",
                    [](ScenarioConfig& s) -> double& { return s.interval.sensing_range; },
                    "certificate constrained iff obstacle closer [m]"));
    k.push_back(dbl(nullptr, "rate_gain",
                    [](ScenarioConfig& s) -> double& { return s.interval.rate_gain; },
                    "alpha in L(v) = alpha * (v + v_env + v_floor)"));
    k.push_back(dbl(nullptr, "speed_floor",
                    [](ScenarioConfig& s) -> double& { return s.interval.speed_floor; },
                    "v_floor [m/s], keeps L > 0 at standstill"));
    k.push_back(dbl(nullptr, "environment_speed",
                    [](ScenarioConfig& s) -> double& { return s.interval.environment_speed; },
                    "worst-case obstacle speed v_env [m/s]"));
    k.push_back(integer(nullptr, "table_distance_bins",
                        [](ScenarioConfig& s) -> int& { return s.table.distance_bins; },
                        "T(x,u) grid: distance bins"));
    k.push_back(integer(nullptr, "table_bearing_bins",
                        [](ScenarioConfig& s) -> int& { return s.table.bearing_bins; },
                        "T(x,u) grid: bearing bins"));
    k.push_back(integer(nullptr, "table_speed_bins",
                        [](ScenarioConfig& s) -> int& { return s.table.speed_bins; },
                        "T(x,u) grid: speed bins"));
    k.push_back(dbl(nullptr, "table_max_speed",
                    [](ScenarioConfig& s) -> double& { return s.table.max_speed; },
                    "T(x,u) domain: max speed [m/s]"));
    k.push_back(integer(nullptr, "table_threads",
                        [](ScenarioConfig& s) -> int& { return s.table.threads; },
                        "T(x,u) build threads (0 = all cores; forced serial "
                        "on pool workers)"));
    k.push_back(KeyDef{
        nullptr, "table_source", "lipschitz | rollout (phi evaluator behind T)",
        [](const KeyValueConfig& c, ScenarioConfig& s) {
          if (!c.contains("table_source")) return;
          const std::string name = c.get_string("table_source");
          if (name == "lipschitz") {
            s.table_source = TableSource::kLipschitz;
          } else if (name == "rollout") {
            s.table_source = TableSource::kRollout;
          } else {
            throw ContractViolation("unknown table source: " + name +
                                    " (lipschitz|rollout)");
          }
        },
        [](const ScenarioConfig& s) {
          return std::string(to_string(s.table_source));
        }});
    k.push_back(dbl(nullptr, "rollout_horizon_s",
                    [](ScenarioConfig& s) -> double& { return s.rollout.horizon_s; },
                    "rollout phi: give-up horizon [s]"));
    k.push_back(KeyDef{
        nullptr, "rollout_step_ms", "rollout phi: integration step [ms]",
        [](const KeyValueConfig& c, ScenarioConfig& s) {
          if (c.contains("rollout_step_ms"))
            s.rollout.step_s = c.get_double("rollout_step_ms", 0.0) * 1e-3;
        },
        [](const ScenarioConfig& s) {
          return fmt_value(s.rollout.step_s * 1e3);
        }});
    k.push_back(integer(nullptr, "rollout_bisection",
                        [](ScenarioConfig& s) -> int& { return s.rollout.bisection_iters; },
                        "rollout phi: crossing-time refinement iterations"));
    k.push_back(boolean(nullptr, "table_cache",
                        [](ScenarioConfig& s) -> bool& { return s.table_cache; },
                        "reuse content-identical T(x,u) tables across episodes"));
    k.push_back(KeyDef{
        nullptr, "table_cache_dir",
        "on-disk artifact store (empty = in-memory only)",
        [](const KeyValueConfig& c, ScenarioConfig& s) {
          if (c.contains("table_cache_dir"))
            s.table_cache_dir = c.get_string("table_cache_dir");
        },
        [](const ScenarioConfig& s) { return s.table_cache_dir; }});
    k.push_back(dbl(nullptr, "cache_budget_mb",
                    [](ScenarioConfig& s) -> double& { return s.cache_budget_mb; },
                    "artifact-dir size cap [MB], LRU GC (0 = unbounded)"));
    k.push_back(dbl(nullptr, "cache_max_age_h",
                    [](ScenarioConfig& s) -> double& { return s.cache_max_age_h; },
                    "artifact last-use age cap [h] (0 = unbounded)"));

    k.push_back(dbl("Perception", "detector_range",
                    [](ScenarioConfig& s) -> double& { return s.detector.max_range; },
                    "detector sensing range [m]"));
    k.push_back(dbl(nullptr, "detector_fov",
                    [](ScenarioConfig& s) -> double& { return s.detector.fov_half_angle; },
                    "half field-of-view [rad]"));
    k.push_back(dbl(nullptr, "detector_noise",
                    [](ScenarioConfig& s) -> double& { return s.detector.position_noise; },
                    "1-sigma position jitter [m]"));
    k.push_back(dbl(nullptr, "detector_dropout",
                    [](ScenarioConfig& s) -> double& { return s.detector.dropout_prob; },
                    "missed-detection probability"));
    k.push_back(KeyDef{
        nullptr, "scaled_model", "resnet50 | resnet152 | vae",
        [](const KeyValueConfig& c, ScenarioConfig& s) {
          if (c.contains("scaled_model"))
            s.scaled_model = scaled_model_from_string(c.get_string("scaled_model"));
        },
        [](const ScenarioConfig&) { return std::string("resnet50"); }});
    k.push_back(dbl(nullptr, "scaled_noise_factor",
                    [](ScenarioConfig& s) -> double& { return s.scaled_noise_factor; },
                    "scaled variant position-noise multiplier"));
    k.push_back(dbl(nullptr, "scaled_dropout",
                    [](ScenarioConfig& s) -> double& { return s.scaled_dropout; },
                    "scaled variant missed-detection probability"));

    k.push_back(dbl("Offloading substrate", "channel_mbps",
                    [](ScenarioConfig& s) -> double& { return s.channel_scale_mbps; },
                    "Rayleigh scale (paper VI-A)"));
    // Unit-converting and multi-field entries are guarded by contains():
    // an absent key must be a strict no-op, not a value round-trip (the
    // ms <-> s scaling is not a floating-point identity).
    k.push_back(KeyDef{
        nullptr, "server_latency_ms", "unqueued edge inference time [ms]",
        [](const KeyValueConfig& c, ScenarioConfig& s) {
          if (c.contains("server_latency_ms"))
            s.link.server_latency_s =
                c.get_double("server_latency_ms", 0.0) * 1e-3;
        },
        [](const ScenarioConfig& s) {
          return fmt_value(s.link.server_latency_s * 1e3);
        }});
    k.push_back(KeyDef{
        nullptr, "downlink_ms", "result return latency [ms]",
        [](const KeyValueConfig& c, ScenarioConfig& s) {
          if (c.contains("downlink_ms"))
            s.link.downlink_latency_s = c.get_double("downlink_ms", 0.0) * 1e-3;
        },
        [](const ScenarioConfig& s) {
          return fmt_value(s.link.downlink_latency_s * 1e3);
        }});
    k.push_back(KeyDef{
        nullptr, "tx_w", "radio transmit power P_tx [W]",
        [](const KeyValueConfig& c, ScenarioConfig& s) {
          if (!c.contains("tx_w")) return;
          s.link.tx_power_w = c.get_double("tx_w", s.link.tx_power_w);
          s.platform.tx_w = s.link.tx_power_w;  // keep the rails consistent
        },
        [](const ScenarioConfig& s) { return fmt_value(s.link.tx_power_w); }});
    k.push_back(integer(nullptr, "probe_interval",
                        [](ScenarioConfig& s) -> int& { return s.offload_probe_interval; },
                        "probe every N infeasible intervals (0 = off)"));
    k.push_back(dbl(nullptr, "probe_bytes",
                    [](ScenarioConfig& s) -> double& { return s.offload_probe_bytes; },
                    "probe transmission payload [bytes]"));
    k.push_back(boolean(nullptr, "use_edge_server",
                        [](ScenarioConfig& s) -> bool& { return s.use_edge_server; },
                        "explicit queueing server vs. fixed latency"));
    k.push_back(integer(nullptr, "server_workers",
                        [](ScenarioConfig& s) -> int& { return s.edge_server.parallelism; },
                        "concurrent inference workers"));
    k.push_back(KeyDef{
        nullptr, "server_service_ms", "per-inference service time [ms]",
        [](const KeyValueConfig& c, ScenarioConfig& s) {
          if (c.contains("server_service_ms"))
            s.edge_server.service_time_s =
                c.get_double("server_service_ms", 0.0) * 1e-3;
        },
        [](const ScenarioConfig& s) {
          return fmt_value(s.edge_server.service_time_s * 1e3);
        }});
    k.push_back(KeyDef{
        nullptr, "server_queue", "pending jobs beyond the workers",
        [](const KeyValueConfig& c, ScenarioConfig& s) {
          if (!c.contains("server_queue")) return;
          const int q = c.get_int("server_queue", 0);
          SEO_EXPECT(q >= 0);
          s.edge_server.queue_capacity = static_cast<std::size_t>(q);
        },
        [](const ScenarioConfig& s) {
          return fmt_value(static_cast<int>(s.edge_server.queue_capacity));
        }});

    k.push_back(integer("Fleet / edge cluster (run_fleet_experiment, tools/fleet)",
                        "fleet.vehicles",
                        [](ScenarioConfig& s) -> int& { return s.fleet.vehicles; },
                        "vehicles sharing the cluster"));
    k.push_back(KeyDef{
        nullptr, "fleet.stagger_ms", "per-vehicle clock offset [ms]",
        [](const KeyValueConfig& c, ScenarioConfig& s) {
          if (c.contains("fleet.stagger_ms"))
            s.fleet.stagger_s = c.get_double("fleet.stagger_ms", 0.0) * 1e-3;
        },
        [](const ScenarioConfig& s) {
          return fmt_value(s.fleet.stagger_s * 1e3);
        }});
    k.push_back(dbl(nullptr, "fleet.contention_alpha",
                    [](ScenarioConfig& s) -> double& { return s.fleet.contention_alpha; },
                    "uplink rate divisor per concurrent uplink"));
    k.push_back(integer(nullptr, "cluster.servers",
                        [](ScenarioConfig& s) -> int& { return s.cluster.servers; },
                        "edge servers behind the dispatcher"));
    k.push_back(KeyDef{
        nullptr, "cluster.dispatch", "round_robin | least_loaded | earliest_slack",
        [](const KeyValueConfig& c, ScenarioConfig& s) {
          if (c.contains("cluster.dispatch"))
            s.cluster.dispatch =
                dispatch_policy_from_string(c.get_string("cluster.dispatch"));
        },
        [](const ScenarioConfig& s) {
          return std::string(to_string(s.cluster.dispatch));
        }});
    k.push_back(KeyDef{
        nullptr, "cluster.batch_window_ms", "dispatcher batch window [ms] (0 = none)",
        [](const KeyValueConfig& c, ScenarioConfig& s) {
          if (c.contains("cluster.batch_window_ms"))
            s.cluster.batch_window_s =
                c.get_double("cluster.batch_window_ms", 0.0) * 1e-3;
        },
        [](const ScenarioConfig& s) {
          return fmt_value(s.cluster.batch_window_s * 1e3);
        }});
    k.push_back(integer(nullptr, "cluster.max_batch",
                        [](ScenarioConfig& s) -> int& { return s.cluster.max_batch; },
                        "largest batched inference (FIFO flushes early)"));
    k.push_back(dbl(nullptr, "cluster.batch_cost",
                    [](ScenarioConfig& s) -> double& { return s.cluster.batch_marginal_cost; },
                    "marginal service cost per extra batched request"));
    k.push_back(integer(nullptr, "cluster.workers",
                        [](ScenarioConfig& s) -> int& { return s.cluster.server.parallelism; },
                        "inference workers per cluster server"));
    k.push_back(KeyDef{
        nullptr, "cluster.service_ms", "per-inference service time [ms]",
        [](const KeyValueConfig& c, ScenarioConfig& s) {
          if (c.contains("cluster.service_ms"))
            s.cluster.server.service_time_s =
                c.get_double("cluster.service_ms", 0.0) * 1e-3;
        },
        [](const ScenarioConfig& s) {
          return fmt_value(s.cluster.server.service_time_s * 1e3);
        }});
    k.push_back(KeyDef{
        nullptr, "cluster.queue", "pending batches per cluster server",
        [](const KeyValueConfig& c, ScenarioConfig& s) {
          if (!c.contains("cluster.queue")) return;
          const int q = c.get_int("cluster.queue", 0);
          SEO_EXPECT(q >= 0);
          s.cluster.server.queue_capacity = static_cast<std::size_t>(q);
        },
        [](const ScenarioConfig& s) {
          return fmt_value(static_cast<int>(s.cluster.server.queue_capacity));
        }});

    k.push_back(dbl("Platform", "idle_w",
                    [](ScenarioConfig& s) -> double& { return s.platform.idle_w; },
                    "accelerator clock-gated idle power [W]"));
    k.push_back(dbl(nullptr, "deep_sleep_w",
                    [](ScenarioConfig& s) -> double& { return s.platform.deep_sleep_w; },
                    "accelerator power-gated draw during offload [W]"));

    k.push_back(KeyDef{
        "Reproducibility", "seed", "episode seed base",
        [](const KeyValueConfig& c, ScenarioConfig& s) {
          if (!c.contains("seed")) return;
          // Full 64-bit range: seeds must survive the round trip unclipped.
          // (stoull would silently wrap "-5" to 2^64-5, so reject signs.)
          const std::string text = c.get_string("seed");
          try {
            if (!text.empty() && text[0] != '-' && text[0] != '+') {
              std::size_t consumed = 0;
              const std::uint64_t v = std::stoull(text, &consumed);
              if (consumed == text.size()) {
                s.seed = v;
                return;
              }
            }
          } catch (const std::exception&) {
          }
          throw ContractViolation(
              "config key 'seed' is not a non-negative integer: " + text);
        },
        [](const ScenarioConfig& s) { return std::to_string(s.seed); }});
    return k;
  }();
  return defs;
}

}  // namespace

std::vector<std::string> scenario_keys() {
  std::vector<std::string> keys;
  keys.reserve(key_registry().size());
  for (const auto& def : key_registry()) keys.push_back(def.key);
  return keys;
}

bool is_scenario_key(const std::string& key) {
  for (const auto& def : key_registry())
    if (def.key == key) return true;
  return false;
}

std::vector<std::string> apply_overrides(const KeyValueConfig& config,
                                         ScenarioConfig& scenario) {
  for (const auto& def : key_registry()) def.apply(config, scenario);

  std::vector<std::string> unknown;
  for (const auto& key : config.keys())
    if (!is_scenario_key(key)) unknown.push_back(key);
  return unknown;
}

std::string scenario_config_template() {
  ScenarioConfig defaults = default_scenario();  // previews take mutable refs
  std::string out =
      "# SEO scenario configuration (key = value; '#' comments)\n"
      "# Generated from the scenario_io key registry — every key below is\n"
      "# recognized by apply_overrides and usable as a sweep axis.\n";
  for (const auto& def : key_registry()) {
    if (def.section != nullptr) {
      out += "\n# ";
      out += def.section;
      out += "\n";
    }
    std::string line = def.key + " = " + def.preview(defaults);
    if (line.size() < 28) line.resize(28, ' ');
    out += line + "  # " + def.comment + "\n";
  }
  return out;
}

}  // namespace seo
