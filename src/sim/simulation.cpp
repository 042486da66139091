#include "sim/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_map>

#include "control/policy.hpp"
#include "core/runtime.hpp"
#include "safety/table_cache.hpp"
#include "sim/world.hpp"
#include "net/channel.hpp"
#include "net/response_estimator.hpp"
#include "util/expect.hpp"
#include "util/units.hpp"

namespace seo {

namespace {

/// Runtime bookkeeping for one optimizable pipeline.
struct PipelineRuntime {
  std::size_t registry_index = 0;  ///< index into the full registry
  PipelineConfig config;
  int delta = 1;
  SyntheticDetector detector;         ///< full model (e.g. ResNet-152)
  SyntheticDetector scaled_detector;  ///< scaled variant (kScaled mode)
  DetectionSet latest;              ///< newest applied output (Theta' entry)
  ResponseEstimator estimator;      ///< delta-hat (offload mode)
  double last_remote_arrival = -1.0;
  int infeasible_streak = 0;        ///< consecutive infeasible intervals
  PipelineResult result;

  PipelineRuntime(std::size_t idx, PipelineConfig cfg, int delta_i,
                  SyntheticDetector det, SyntheticDetector scaled_det,
                  ResponseEstimator est, int deadline_cap)
      : registry_index(idx),
        config(std::move(cfg)),
        delta(delta_i),
        detector(std::move(det)),
        scaled_detector(std::move(scaled_det)),
        estimator(est) {
    result.name = config.name;
    result.delta = delta_i;
    result.tally = PipelineTally(deadline_cap);
  }
};

/// Offload responses carry the detections computed from the frame that was
/// transmitted; keyed by transaction id until arrival.
struct PendingResponse {
  DetectionSet detections;
};

std::unique_ptr<OptimizationStrategy> make_strategy(OptimizerMode mode) {
  switch (mode) {
    case OptimizerMode::kNone: return std::make_unique<LocalOnlyStrategy>();
    case OptimizerMode::kGating: return std::make_unique<GatingStrategy>();
    case OptimizerMode::kScaled: return std::make_unique<ScaledStrategy>();
    case OptimizerMode::kOffload: return std::make_unique<OffloadStrategy>();
  }
  SEO_ASSERT(false);
  return nullptr;
}

// --- Artifact-store plumbing (shared by run_episode and the digest
// --- helper, so the two key constructions can never drift apart).

std::uint64_t mb_to_bytes(double mb) {
  return mb > 0.0 ? static_cast<std::uint64_t>(mb * 1024.0 * 1024.0) : 0;
}

ArtifactDiskOptions artifact_disk_options(const ScenarioConfig& config) {
  ArtifactDiskOptions disk;
  disk.dir = config.table_cache_dir;
  disk.max_bytes = mb_to_bytes(config.cache_budget_mb);
  disk.max_age_s = config.cache_max_age_h > 0.0
                       ? config.cache_max_age_h * 3600.0
                       : 0.0;
  return disk;
}

/// Table grid with the domain resolved to the sensing range (both sources
/// share one sensing horizon).
DeadlineTableConfig effective_table_config(const ScenarioConfig& config) {
  DeadlineTableConfig table = config.table;
  table.max_distance = config.interval.sensing_range;
  return table;
}

RolloutIntervalConfig effective_rollout_config(const ScenarioConfig& config) {
  RolloutIntervalConfig rollout = config.rollout;
  rollout.sensing_range = config.interval.sensing_range;
  return rollout;
}

/// The key fingerprints every table-determining input — crucially the
/// *effective* interval config with the moving-obstacle environment_speed
/// raise, so worlds with distinct obstacle speeds can never share a table.
DeadlineTableKey lipschitz_table_key(
    const ScenarioConfig& config,
    const LipschitzIntervalConfig& effective_interval) {
  DeadlineTableKey key;
  key.table = effective_table_config(config);
  key.interval = effective_interval;
  key.barrier = config.barrier;
  key.road = config.road;
  key.body_radius = config.barrier.body_radius;
  return key;
}

RolloutTableKey rollout_table_key(const ScenarioConfig& config) {
  RolloutTableKey key;
  key.table = effective_table_config(config);
  key.rollout = effective_rollout_config(config);
  key.model = config.vehicle;
  key.barrier = config.barrier;
  key.road = config.road;
  key.body_radius = config.barrier.body_radius;
  return key;
}

}  // namespace

std::uint64_t scenario_table_digest(const ScenarioConfig& config) {
  if (!config.use_lookup_table || !config.table_cache) return 0;
  if (config.table_source == TableSource::kRollout)
    return rollout_table_key(config).digest();
  LipschitzIntervalConfig interval = config.interval;
  if (config.moving_obstacles) {
    // Replicate run_episode's world sampling: the runtime raise derives
    // from the sampled obstacle motions, which come off the same rng split.
    Rng master(config.seed);
    Rng obstacle_rng = master.split();
    interval.environment_speed =
        std::max(interval.environment_speed,
                 make_moving_obstacles(config, obstacle_rng)
                     .max_obstacle_speed());
  }
  return lipschitz_table_key(config, interval).digest();
}

EpisodeResult run_episode(const ScenarioConfig& config, EpisodeTrace* trace) {
  SEO_EXPECT(!config.pipelines.empty());
  Rng master(config.seed);

  // --- World -------------------------------------------------------------
  Rng obstacle_rng = master.split();
  const Road road(config.road);
  const BicycleModel vehicle_model(config.vehicle);
  VehicleState initial;
  initial.position = {0.0, 0.0};
  initial.heading = 0.0;
  initial.speed = config.initial_speed;
  World world =
      config.moving_obstacles
          ? World(road, make_moving_obstacles(config, obstacle_rng),
                  vehicle_model, initial, config.barrier.body_radius)
          : World(road, make_obstacles(config, obstacle_rng), vehicle_model,
                  initial, config.barrier.body_radius);

  // --- Safety stack ------------------------------------------------------
  const Barrier barrier(config.barrier);
  const SafetyFilter filter(config.filter, vehicle_model, barrier, road);
  LipschitzIntervalConfig interval_config = config.interval;
  // Dynamic environments: the certificate must also cover barrier decay
  // caused by obstacle motion.
  interval_config.environment_speed =
      std::max(interval_config.environment_speed,
               world.motions().max_obstacle_speed());
  const LipschitzSafeInterval exact_interval(interval_config, barrier, road);
  // Rollout-phi evaluator when the scenario derives deadlines from the
  // integrated phi instead of the closed-form certificate.
  std::optional<RolloutSafeInterval> rollout_exact;
  if (config.table_source == TableSource::kRollout)
    rollout_exact.emplace(effective_rollout_config(config), vehicle_model,
                          barrier);
  std::shared_ptr<const DeadlineTable> table;
  if (config.use_lookup_table) {
    DeadlineTableConfig table_config = effective_table_config(config);
    // A cache-miss build from inside a sweep/fleet ThreadPool fan-out must
    // not fan out again (pools-within-pools oversubscribe the machine);
    // build output is bit-identical for any thread count, so forcing the
    // nested case serial changes nothing but scheduling.
    table_config.threads =
        DeadlineTableCache::effective_build_threads(table_config.threads);
    const ArtifactDiskOptions disk = artifact_disk_options(config);
    if (config.table_source == TableSource::kRollout) {
      const auto build = [&] {
        return std::make_unique<DeadlineTable>(table_config, *rollout_exact,
                                               config.barrier.body_radius);
      };
      if (config.table_cache) {
        RolloutTableKey key = rollout_table_key(config);
        key.table.threads = table_config.threads;  // cosmetic; not in digest
        table = RolloutTableStore::global().get(key, disk, build);
      } else {
        table = build();
      }
    } else {
      const auto build = [&] {
        return std::make_unique<DeadlineTable>(table_config, exact_interval,
                                               config.barrier.body_radius);
      };
      if (config.table_cache) {
        // The key fingerprints every table-determining input — crucially
        // the *effective* interval config with the environment_speed raise
        // above, so worlds with distinct obstacle speeds can never share a
        // table.
        DeadlineTableKey key = lipschitz_table_key(config, interval_config);
        key.table.threads = table_config.threads;
        table = DeadlineTableCache::global().get(key, disk, build);
      } else {
        table = build();
      }
    }
  }
  const SafeIntervalEvaluator& deadline_source =
      table ? static_cast<const SafeIntervalEvaluator&>(*table)
      : rollout_exact
          ? static_cast<const SafeIntervalEvaluator&>(*rollout_exact)
          : static_cast<const SafeIntervalEvaluator&>(exact_interval);

  // --- Control -----------------------------------------------------------
  HybridPolicy policy(config.policy, config.vehicle, master.split());

  // --- Registry / scheduler ----------------------------------------------
  const TimeBase time(config.tau_s);
  const ModelRegistry registry(config.pipelines, time);
  SEO_EXPECT(!registry.optimizable().empty());
  // (SeoRuntime is constructed below, once the pipeline runtimes exist for
  // its hooks to reference.)

  // --- Offloading substrate ----------------------------------------------
  RayleighChannel channel(units::mbps(config.channel_scale_mbps));
  EdgeServer edge_server(config.edge_server);
  OffloadLink link(config.link, channel, master.split(),
                   config.use_edge_server ? &edge_server : nullptr);
  // Rayleigh mean = sigma * sqrt(pi/2), computed rather than a truncated
  // literal so the estimator prior is exact.
  const double mean_rate_bps =
      units::mbps(config.channel_scale_mbps) * std::sqrt(std::acos(-1.0) / 2.0);

  // --- Pipeline runtimes ---------------------------------------------------
  DetectorConfig scaled_detector_config = config.detector;
  scaled_detector_config.position_noise *= config.scaled_noise_factor;
  scaled_detector_config.dropout_prob = config.scaled_dropout;

  std::vector<PipelineRuntime> pipes;
  for (std::size_t k = 0; k < registry.optimizable().size(); ++k) {
    const std::size_t idx = registry.optimizable()[k];
    const auto& pc = registry.at(idx);
    const double prior_rt =
        units::bits(pc.sensor.frame_bytes) / mean_rate_bps +
        config.link.server_latency_s + config.link.downlink_latency_s;
    pipes.emplace_back(
        idx, pc, registry.delta(idx),
        SyntheticDetector(config.detector, master.split()),
        SyntheticDetector(scaled_detector_config, master.split()),
        ResponseEstimator(prior_rt), config.deadline_cap);
  }
  std::unordered_map<std::uint64_t, PendingResponse> pending;

  // --- SEO runtime (the library's public decision engine) -----------------
  // Loop state referenced by the runtime hooks; assigned every tick.
  double now = 0.0;
  VehicleState x;
  Control last_control{};
  double interval_start_time = 0.0;

  SeoRuntime::Hooks hooks;
  hooks.sample_deadline = [&]() -> DeadlineSample {
    const SafeInterval si =
        deadline_source.evaluate(x, last_control, world.obstacles());
    return DeadlineSample{si.constrained, si.delta_max_s};
  };
  hooks.on_interval_start = [&] { interval_start_time = now; };
  if (config.mode == OptimizerMode::kOffload) {
    hooks.estimate_periods = [&](std::size_t i) {
      return pipes[i].estimator.estimate_periods(config.tau_s);
    };
    hooks.remote_fresh = [&](std::size_t i) {
      const auto& pipe = pipes[i];
      return pipe.latest.valid &&
             pipe.last_remote_arrival >= interval_start_time &&
             (now - pipe.latest.frame_time) <=
                 offload_freshness_bound_s(config.deadline_cap, config.tau_s);
    };
  }
  SeoRuntime runtime(
      SeoRuntime::Config{time, config.deadline_cap,
                         registry.optimizable_deltas()},
      make_strategy(config.mode), std::move(hooks));

  // --- Episode loop --------------------------------------------------------
  EpisodeResult episode;
  episode.min_h = std::numeric_limits<double>::infinity();

  const auto max_ticks = static_cast<long long>(config.max_episode_s /
                                                config.tau_s);
  if (trace != nullptr)
    trace->reserve_for(config.max_episode_s, config.tau_s, pipes.size());

  // Reused across ticks; detections are appended per tick after clear(),
  // so steady state never reallocates.  The tick report's directive buffer
  // is likewise reused via tick_into.
  PolicyObservation obs;
  SeoRuntime::TickReport report;

  for (long long tick_index = 0; tick_index < max_ticks; ++tick_index) {
    now = time.seconds(tick_index);

    // (a) Collect offload arrivals; update estimators and Theta'.
    for (const auto& arrival : link.collect_arrivals(now)) {
      auto it = pending.find(arrival.id);
      SEO_ASSERT(it != pending.end());
      auto& pipe = pipes[arrival.pipeline];
      // Scale the observed uplink to full-frame size (probes are smaller),
      // so delta-hat always estimates a full-frame round trip.
      const double service_s = arrival.response_time - arrival.submit_time -
                               arrival.tx_time_s;
      const double size_ratio =
          pipe.config.sensor.frame_bytes / arrival.bytes;
      pipe.estimator.observe(service_s + arrival.tx_time_s * size_ratio);
      pipe.last_remote_arrival = arrival.response_time;
      if (!pipe.latest.valid ||
          it->second.detections.frame_time > pipe.latest.frame_time)
        pipe.latest = it->second.detections;
      pending.erase(it);
    }

    // (b) Lambda'' state estimation (ground truth, as in the paper).
    x = world.state();

    // (c) SEO runtime tick: Algorithm 1 + Omega decide per-frame actions.
    runtime.tick_into(report);
    if (report.interval_started) {
      episode.deadline_hist.add(report.delta_max);
      // Channel probing: while infeasible, periodically transmit one frame
      // so the delta-hat estimator can observe channel recovery.
      if (config.mode == OptimizerMode::kOffload &&
          config.offload_probe_interval > 0) {
        for (std::size_t k = 0; k < pipes.size(); ++k) {
          auto& pipe = pipes[k];
          if (runtime.pipeline_offload_feasible(k)) {
            pipe.infeasible_streak = 0;
            continue;
          }
          if (++pipe.infeasible_streak % config.offload_probe_interval != 0)
            continue;
          // Small probe packet: measures the channel, carries a low-rate
          // perception summary (applied opportunistically on arrival).
          DetectionSet frame_result =
              pipe.detector.detect(x, world.obstacles(), now);
          const OffloadTransaction tx = link.submit(
              k, config.offload_probe_bytes, now, now);
          pending.emplace(tx.id, PendingResponse{std::move(frame_result)});
          ++pipe.result.offload_submitted;
          runtime.add_probe_energy(k, tx.tx_time_s * config.link.tx_power_w);
          if (trace != nullptr) {
            trace->add_offload({k, now, config.offload_probe_bytes,
                                tx.tx_time_s,
                                now + offload_freshness_bound_s(
                                          config.deadline_cap, config.tau_s),
                                /*probe=*/true});
          }
        }
      }
    }

    // (d) Execute the directives (the application side of the API).
    for (const auto& directive : report.directives) {
      auto& pipe = pipes[directive.pipeline];
      double tx_j = 0.0;
      switch (directive.action) {
        case FrameAction::kRunLocal:
          pipe.detector.detect_into(x, world.obstacles(), now, pipe.latest);
          break;
        case FrameAction::kGate:
          break;  // previous output stays in Theta'
        case FrameAction::kRunScaled:
          // Cheaper model variant: fresh (noisier) outputs.
          pipe.scaled_detector.detect_into(x, world.obstacles(), now,
                                           pipe.latest);
          break;
        case FrameAction::kOffload:
        case FrameAction::kApplyRemote: {
          // Transmit the current frame; its result arrives via the link.
          DetectionSet frame_result =
              pipe.detector.detect(x, world.obstacles(), now);
          const OffloadTransaction tx = link.submit(
              directive.pipeline, pipe.config.sensor.frame_bytes, now, now);
          pending.emplace(tx.id, PendingResponse{std::move(frame_result)});
          ++pipe.result.offload_submitted;
          tx_j = tx.tx_time_s * config.link.tx_power_w;
          if (trace != nullptr) {
            trace->add_offload({directive.pipeline, now,
                                pipe.config.sensor.frame_bytes, tx.tx_time_s,
                                now + offload_freshness_bound_s(
                                          config.deadline_cap, config.tau_s),
                                /*probe=*/false});
          }
          break;
        }
      }
      runtime.record(directive, tx_j);
    }

    // (e) Aggregate Theta and run the controller + safety filter.
    obs.detections.clear();
    obs.state = x;
    obs.road = &world.road();
    obs.time_s = now;
    double newest = -std::numeric_limits<double>::infinity();
    for (const auto& pipe : pipes) {
      if (!pipe.latest.valid) continue;
      newest = std::max(newest, pipe.latest.frame_time);
      obs.detections.insert(obs.detections.end(),
                            pipe.latest.detections.begin(),
                            pipe.latest.detections.end());
    }
    obs.detection_age_s = newest > 0.0 ? now - newest : 0.0;

    const Control raw = policy.act(obs);
    Control applied = vehicle_model.clamp(raw);
    bool engaged = false;
    // The barrier at x: a filtered tick takes it from the filter, whose
    // h_now folds the same field at the same state to the same bits.
    double h_now = 0.0;
    if (config.filtered) {
      const FilterDecision decision =
          filter.filter(x, world.obstacles(), raw);
      applied = decision.control;
      engaged = decision.engaged;
      h_now = decision.h_now;
    } else {
      h_now = barrier.value(x, world.obstacles());
    }
    episode.min_h = std::min(episode.min_h, h_now);
    last_control = applied;

    if (trace != nullptr) {
      TraceSample sample;
      sample.t = now;
      sample.position = x.position;
      sample.heading = x.heading;
      sample.speed = x.speed;
      sample.barrier_h = h_now;
      sample.delta_max = report.delta_max;
      sample.unconstrained = report.unconstrained;
      sample.interval_started = report.interval_started;
      sample.filter_engaged = engaged;
      sample.steering = applied.steering;
      sample.throttle = applied.throttle;
      sample.detection_age_s = obs.detection_age_s;
      trace->add(sample);
    }

    // (f) Advance physics one base period.
    world.apply(applied, config.tau_s, config.physics_substeps);
    if (world.terminal()) break;
  }

  // --- Outcome -------------------------------------------------------------
  episode.completed = world.finished();
  episode.collided = world.collided();
  episode.off_road = world.off_road();
  episode.timed_out = !world.terminal();
  episode.duration_s = world.time();
  episode.progress_m = world.road().progress(world.state().position);
  episode.avg_speed =
      episode.duration_s > 0.0 ? episode.progress_m / episode.duration_s : 0.0;
  episode.filter_engagements = filter.engagements();
  episode.intervals = runtime.intervals();
  episode.unconstrained_intervals = runtime.unconstrained_intervals();
  for (std::size_t k = 0; k < pipes.size(); ++k) {
    auto& pipe = pipes[k];
    pipe.result.tally = runtime.tally(k);
    pipe.result.offload_applied = runtime.remote_applied(k);
    pipe.result.offload_fallbacks = runtime.fallbacks(k);
    episode.pipelines.push_back(std::move(pipe.result));
  }
  return episode;
}

EnergyComparison episode_model_energy(const ScenarioConfig& config,
                                      const EpisodeResult& episode) {
  EnergyComparison total;
  std::size_t k = 0;
  for (const auto& pc : config.pipelines) {
    if (pc.criticality != Criticality::kOptimizable) continue;
    SEO_ASSERT(k < episode.pipelines.size());
    total += model_energy(episode.pipelines[k].tally, pc.model,
                          pc.sensor.period_s, config.platform,
                          &config.scaled_model);
    ++k;
  }
  return total;
}

TraceEpisodeSummary summarize_episode(const ScenarioConfig& config,
                                      const EpisodeResult& episode) {
  TraceEpisodeSummary summary;
  summary.completed = episode.completed;
  summary.collided = episode.collided;
  summary.off_road = episode.off_road;
  summary.timed_out = episode.timed_out;
  summary.duration_s = episode.duration_s;
  summary.avg_speed = episode.avg_speed;
  summary.min_h = episode.min_h;
  summary.filter_engagements = episode.filter_engagements;
  summary.intervals = episode.intervals;
  const EnergyComparison energy = episode_model_energy(config, episode);
  summary.energy_actual_j = energy.actual_j;
  summary.energy_baseline_j = energy.baseline_j;
  return summary;
}

}  // namespace seo
