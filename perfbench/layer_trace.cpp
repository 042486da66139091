// perfbench-trace — the benchmark's traced run.
//
// Runs one workload's grid in-process against the seo library and records
// spans (name, start, end, parent) around the calls it makes into each
// layer: plan_sweep, run_sweep / run_fleet_experiment, run_experiment per
// point, run_episode per attempt, the table stores' get (cold and warm),
// and the trace stream writer/reader.  The intra-episode layers are timed
// by replaying every recorded episode tick by tick on its own states
// (World::apply, Barrier::value, SafetyFilter::filter, the deadline
// evaluator, SyntheticDetector, HybridPolicy::act, SeoRuntime::tick_into,
// SeoRuntime::record, OffloadLink) and weighting each per-call cost by the
// episode's own call counts.
//
//   perfbench-trace --mode sweep --scenarios a,b --axis deadline_cap=2,4
//       --episodes 10 --seed 1000 --threads 4 --scratch DIR
//       --report OUT.csv --spans OUT.json --seconds 10
//
// Prints one JSON object of per-layer metrics on stdout.  Spans are kept in
// memory and written to --spans when the run ends.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "control/hybrid_policy.hpp"
#include "core/artifact_store.hpp"
#include "core/model_registry.hpp"
#include "core/runtime.hpp"
#include "core/strategy.hpp"
#include "net/channel.hpp"
#include "net/edge_server.hpp"
#include "net/offload_link.hpp"
#include "net/response_estimator.hpp"
#include "nn/weights_store.hpp"
#include "safety/barrier.hpp"
#include "safety/safe_interval.hpp"
#include "safety/safety_filter.hpp"
#include "safety/table_cache.hpp"
#include "sensors/detector.hpp"
#include "sim/experiment.hpp"
#include "sim/fleet_experiment.hpp"
#include "sim/simulation.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_report.hpp"
#include "sim/trace.hpp"
#include "sim/world.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace {

using namespace seo;
using Clock = std::chrono::steady_clock;

// --- Spans ------------------------------------------------------------------

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
};

/// Single-threaded span recorder; every span opens and closes on the main
/// thread around one call into the library.  Span names are fixed literals
/// (no JSON escaping needed).
class Tracer {
 public:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  int open(const std::string& name, int parent) {
    spans_.push_back({name, now(), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  double close(int id) {
    spans_[id].end_s = now();
    return spans_[id].end_s - spans_[id].start_s;
  }
  int add(const std::string& name, double start, double end, int parent) {
    spans_.push_back({name, start, end, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span: its duration minus the union of its children's
  /// intervals (children of one parent never overlap here).
  std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end_s - spans_[i].start_s;
    for (const Span& s : spans_)
      if (s.parent >= 0) self[s.parent] -= s.end_s - s.start_s;
    return self;
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

void write_spans(const std::string& path, const Tracer& tracer) {
  std::ofstream out(path);
  const std::vector<double> self = tracer.self_times();
  out << std::setprecision(9) << "[\n";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out << "  {\"id\": " << i << ", \"name\": \"" << spans[i].name
        << "\", \"start_s\": " << spans[i].start_s
        << ", \"end_s\": " << spans[i].end_s
        << ", \"parent\": " << spans[i].parent << ", \"self_s\": " << self[i]
        << "}" << (i + 1 < spans.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

// --- Options ----------------------------------------------------------------

struct Options {
  bool fleet = false;
  SweepConfig grid;
  int rounds = 1;
  std::string scratch;
  std::string report;
  std::string spans;
  double seconds = 1.0;
  bool warm_pass = false;  ///< re-run the job against the populated dir
};

[[noreturn]] void die(const std::string& message) {
  std::cerr << "perfbench-trace: " << message << "\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  opt.grid.threads = 4;
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) die(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--mode") {
      const std::string mode = value(i);
      if (mode != "sweep" && mode != "fleet") die("--mode is sweep|fleet");
      opt.fleet = mode == "fleet";
    } else if (arg == "--scenarios") {
      opt.grid.scenarios = cli::split(value(i), ',');
    } else if (arg == "--axis") {
      const std::string spec = value(i);
      const auto eq = spec.find('=');
      if (eq == std::string::npos) die("--axis expects key=v1,v2,...");
      opt.grid.axes.push_back({spec.substr(0, eq), cli::split(spec.substr(eq + 1), ',')});
    } else if (arg == "--set") {
      const std::string spec = value(i);
      const auto eq = spec.find('=');
      if (eq == std::string::npos) die("--set expects key=value");
      opt.grid.base_overrides.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--episodes") {
      opt.grid.episodes = std::stoi(value(i));
    } else if (arg == "--seed") {
      opt.grid.base_seed = std::stoull(value(i));
    } else if (arg == "--threads") {
      opt.grid.threads = std::stoi(value(i));
    } else if (arg == "--rounds") {
      opt.rounds = std::stoi(value(i));
    } else if (arg == "--allow-failures") {
      opt.grid.require_success = false;
    } else if (arg == "--warm-pass") {
      opt.warm_pass = true;
    } else if (arg == "--scratch") {
      opt.scratch = value(i);
    } else if (arg == "--report") {
      opt.report = value(i);
    } else if (arg == "--spans") {
      opt.spans = value(i);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value(i));
    } else {
      die("unknown argument: " + arg);
    }
  }
  if (opt.scratch.empty() || opt.report.empty() || opt.spans.empty())
    die("--scratch, --report and --spans are required");
  return opt;
}

// --- Metrics ----------------------------------------------------------------

using Metrics = std::map<std::string, double>;

double quantile_of(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

ArtifactStoreStats artifact_totals() {
  (void)DeadlineTableCache::global();
  (void)RolloutTableStore::global();
  (void)nn::cem_weights_store();
  ArtifactStoreStats total;
  for (const auto& row : ArtifactStoreRegistry::global().snapshot()) {
    total.hits += row.stats.hits;
    total.misses += row.stats.misses;
    total.builds += row.stats.builds;
    total.waits += row.stats.waits;
    total.lock_waits += row.stats.lock_waits;
    total.disk_loads += row.stats.disk_loads;
    total.disk_stores += row.stats.disk_stores;
  }
  return total;
}

std::map<std::string, std::uint64_t> builds_by_kind() {
  std::map<std::string, std::uint64_t> builds;
  for (const auto& row : ArtifactStoreRegistry::global().snapshot())
    builds[row.kind] = row.stats.builds;
  return builds;
}

// --- Recorded episodes ------------------------------------------------------

struct Recorded {
  ScenarioConfig config;  ///< seed set to the attempt's seed
  EpisodeResult result;
  std::vector<TraceSample> samples;
  std::vector<OffloadEvent> offloads;
  double span_s = 0.0;  ///< run_episode wall time in the traced pass
};

/// Fleet CSV rendering, byte-identical to tools/fleet_main.cpp's report.
void write_fleet_report(std::ostream& out, const SweepConfig& grid,
                        const std::vector<SweepPoint>& points,
                        const std::vector<FleetResult>& results) {
  out << "scenario";
  for (const auto& axis : grid.axes) out << "," << axis.key;
  for (const auto& name : fleet_metric_names()) out << "," << name;
  out << "\n";
  for (std::size_t p = 0; p < points.size(); ++p) {
    out << points[p].scenario;
    for (const auto& kv : points[p].assignment) out << "," << kv.second;
    for (const double v : fleet_metrics(results[p])) out << "," << report_fmt(v);
    out << "\n";
  }
}

// --- Intra-episode layer replay ----------------------------------------------

/// Accumulated wall time and call count of one layer call site.
struct Cost {
  double total_s = 0.0;
  std::uint64_t calls = 0;
  void add(double s) {
    total_s += s;
    ++calls;
  }
  double mean_s() const {
    return calls > 0 ? total_s / static_cast<double>(calls) : 0.0;
  }
};

struct LayerCosts {
  Cost world, barrier, filter_pass, filter_engaged, deadline, detect, policy,
      tick, tally, table_get;
  Cost arrivals, link;  ///< offload link: arrivals per tick, submits
  Cost whole;  ///< the untraced run_episode, timed beside its replay
  std::uint64_t state_mismatches = 0;
};

std::unique_ptr<OptimizationStrategy> strategy_for(OptimizerMode mode) {
  switch (mode) {
    case OptimizerMode::kNone: return std::make_unique<LocalOnlyStrategy>();
    case OptimizerMode::kGating: return std::make_unique<GatingStrategy>();
    case OptimizerMode::kScaled: return std::make_unique<ScaledStrategy>();
    case OptimizerMode::kOffload: return std::make_unique<OffloadStrategy>();
  }
  return std::make_unique<GatingStrategy>();
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// What an empty timed region reads: subtracted from every per-call mean so
/// sub-microsecond layers are not inflated by the clock reads around them.
double timer_bias_s() {
  constexpr int kReads = 200000;
  double total = 0.0;
  for (int i = 0; i < kReads; ++i) {
    const auto t0 = Clock::now();
    total += since(t0);
  }
  return total / kReads;
}

/// The resident deadline table an episode of `c` consults, fetched from the
/// process-wide store under the key run_episode derives (a hit once the
/// traced pass ran).  Null when the scenario probes no cached table.
std::shared_ptr<const DeadlineTable> resident_table(
    const ScenarioConfig& c, const LipschitzIntervalConfig& interval,
    const RolloutSafeInterval* rollout, const LipschitzSafeInterval& exact,
    Cost& cost) {
  if (!c.use_lookup_table || !c.table_cache) return nullptr;
  DeadlineTableConfig table = c.table;
  table.max_distance = c.interval.sensing_range;
  table.threads = DeadlineTableCache::effective_build_threads(table.threads);
  const auto t0 = Clock::now();
  std::shared_ptr<const DeadlineTable> result;
  if (c.table_source == TableSource::kRollout) {
    RolloutTableKey key;
    key.table = table;
    key.rollout = c.rollout;
    key.rollout.sensing_range = c.interval.sensing_range;
    key.model = c.vehicle;
    key.barrier = c.barrier;
    key.road = c.road;
    key.body_radius = c.barrier.body_radius;
    result = RolloutTableStore::global().get(key, ArtifactDiskOptions{}, [&] {
      return std::make_unique<DeadlineTable>(table, *rollout, c.barrier.body_radius);
    });
  } else {
    DeadlineTableKey key;
    key.table = table;
    key.interval = interval;
    key.barrier = c.barrier;
    key.road = c.road;
    key.body_radius = c.barrier.body_radius;
    result = DeadlineTableCache::global().get(key, ArtifactDiskOptions{}, [&] {
      return std::make_unique<DeadlineTable>(table, exact, c.barrier.body_radius);
    });
  }
  cost.add(since(t0));
  return result;
}

/// One optimizable pipeline of a replayed episode, as run_episode keeps it.
struct ReplayPipe {
  SyntheticDetector detector;
  SyntheticDetector scaled;
  double frame_bytes = 0.0;
  ResponseEstimator estimator;
  DetectionSet latest;
  double last_remote_arrival = -1.0;
  int infeasible_streak = 0;
  std::uint64_t submitted = 0;

  ReplayPipe(SyntheticDetector full, SyntheticDetector scaled_variant, double bytes,
             ResponseEstimator prior)
      : detector(std::move(full)),
        scaled(std::move(scaled_variant)),
        frame_bytes(bytes),
        estimator(prior) {}
};

/// Re-executes one recorded episode tick by tick, timing each layer call on
/// the episode's own states.  Every decision run_episode makes is made again
/// (offload link, response estimators and probes included), so the runtime,
/// detectors, policy and filter see the episode's own inputs.  The world is
/// driven by the recorded applied controls; every tick whose state, barrier
/// value, tick report, filter decision or applied control differs from the
/// recorded sample, and every end-of-episode tally that differs from the
/// recorded result, counts as a state mismatch.
void replay_episode(const Recorded& ep, LayerCosts& costs) {
  const ScenarioConfig& c = ep.config;
  Rng master(c.seed);
  Rng obstacle_rng = master.split();
  const Road road(c.road);
  const BicycleModel vehicle(c.vehicle);
  VehicleState initial;
  initial.position = {0.0, 0.0};
  initial.heading = 0.0;
  initial.speed = c.initial_speed;
  World world = c.moving_obstacles
                    ? World(road, make_moving_obstacles(c, obstacle_rng), vehicle,
                            initial, c.barrier.body_radius)
                    : World(road, make_obstacles(c, obstacle_rng), vehicle,
                            initial, c.barrier.body_radius);

  const Barrier barrier(c.barrier);
  const SafetyFilter filter(c.filter, vehicle, barrier, road);
  LipschitzIntervalConfig interval = c.interval;
  interval.environment_speed = std::max(interval.environment_speed,
                                        world.motions().max_obstacle_speed());
  const LipschitzSafeInterval exact(interval, barrier, road);
  std::optional<RolloutSafeInterval> rollout;
  if (c.table_source == TableSource::kRollout) {
    RolloutIntervalConfig rc = c.rollout;
    rc.sensing_range = c.interval.sensing_range;
    rollout.emplace(rc, vehicle, barrier);
  }
  const auto table = resident_table(c, interval, rollout ? &*rollout : nullptr,
                                    exact, costs.table_get);
  const SafeIntervalEvaluator& evaluator =
      table ? static_cast<const SafeIntervalEvaluator&>(*table)
      : rollout ? static_cast<const SafeIntervalEvaluator&>(*rollout)
                : static_cast<const SafeIntervalEvaluator&>(exact);

  HybridPolicy policy(c.policy, c.vehicle, master.split());
  const TimeBase time(c.tau_s);
  const ModelRegistry registry(c.pipelines, time);
  RayleighChannel channel(units::mbps(c.channel_scale_mbps));
  EdgeServer edge_server(c.edge_server);
  OffloadLink link(c.link, channel, master.split(),
                   c.use_edge_server ? &edge_server : nullptr);
  const double mean_rate_bps =
      units::mbps(c.channel_scale_mbps) * std::sqrt(std::acos(-1.0) / 2.0);
  DetectorConfig scaled_config = c.detector;
  scaled_config.position_noise *= c.scaled_noise_factor;
  scaled_config.dropout_prob = c.scaled_dropout;
  std::vector<ReplayPipe> pipes;
  for (const std::size_t idx : registry.optimizable()) {
    const double frame_bytes = registry.at(idx).sensor.frame_bytes;
    const double prior_rt = units::bits(frame_bytes) / mean_rate_bps +
                            c.link.server_latency_s + c.link.downlink_latency_s;
    // run_episode splits both detector streams inside one argument list;
    // the compilers this builds with evaluate it right to left, so the
    // scaled detector takes the first split.  The state check below fails
    // on a compiler that does otherwise.
    SyntheticDetector scaled(scaled_config, master.split());
    SyntheticDetector detector(c.detector, master.split());
    pipes.emplace_back(std::move(detector), std::move(scaled), frame_bytes,
                       ResponseEstimator(prior_rt));
  }
  std::map<std::uint64_t, DetectionSet> pending;

  const bool offload = c.mode == OptimizerMode::kOffload;
  const double freshness = offload_freshness_bound_s(c.deadline_cap, c.tau_s);
  double now = 0.0;
  double interval_start = 0.0;
  VehicleState x;
  Control last_control{};
  SeoRuntime::Hooks hooks;
  hooks.sample_deadline = [&]() -> DeadlineSample {
    const auto t0 = Clock::now();
    const SafeInterval si = evaluator.evaluate(x, last_control, world.obstacles());
    costs.deadline.add(since(t0));
    return DeadlineSample{si.constrained, si.delta_max_s};
  };
  hooks.on_interval_start = [&] { interval_start = now; };
  if (offload) {
    hooks.estimate_periods = [&](std::size_t i) {
      return pipes[i].estimator.estimate_periods(c.tau_s);
    };
    hooks.remote_fresh = [&](std::size_t i) {
      const ReplayPipe& pipe = pipes[i];
      return pipe.latest.valid && pipe.last_remote_arrival >= interval_start &&
             (now - pipe.latest.frame_time) <= freshness;
    };
  }
  SeoRuntime runtime(SeoRuntime::Config{time, c.deadline_cap,
                                        registry.optimizable_deltas()},
                     strategy_for(c.mode), std::move(hooks));

  // An offload: the transmitted frame's detections, held until they arrive.
  const auto submit = [&](std::size_t k, double bytes) {
    ReplayPipe& pipe = pipes[k];
    auto t0 = Clock::now();
    DetectionSet result = pipe.detector.detect(x, world.obstacles(), now);
    costs.detect.add(since(t0));
    t0 = Clock::now();
    const OffloadTransaction tx = link.submit(k, bytes, now, now);
    costs.link.add(since(t0));
    pending.emplace(tx.id, std::move(result));
    ++pipe.submitted;
    return tx.tx_time_s * c.link.tx_power_w;
  };

  PolicyObservation obs;
  SeoRuntime::TickReport report;
  std::uint64_t mismatched_ticks = 0;
  for (std::size_t i = 0; i < ep.samples.size(); ++i) {
    const TraceSample& s = ep.samples[i];
    now = time.seconds(static_cast<long long>(i));
    if (offload) {
      const auto t0 = Clock::now();
      for (const auto& arrival : link.collect_arrivals(now)) {
        const auto it = pending.find(arrival.id);
        if (it == pending.end()) {  // an arrival the replay never submitted
          ++mismatched_ticks;
          continue;
        }
        ReplayPipe& pipe = pipes[arrival.pipeline];
        const double service_s =
            arrival.response_time - arrival.submit_time - arrival.tx_time_s;
        pipe.estimator.observe(service_s +
                               arrival.tx_time_s * pipe.frame_bytes / arrival.bytes);
        pipe.last_remote_arrival = arrival.response_time;
        if (!pipe.latest.valid || it->second.frame_time > pipe.latest.frame_time)
          pipe.latest = it->second;
        pending.erase(it);
      }
      costs.arrivals.add(since(t0));
    }

    x = world.state();
    auto t0 = Clock::now();
    const double h = barrier.value(x, world.obstacles());
    costs.barrier.add(since(t0));

    const double deadline_before = costs.deadline.total_s;
    t0 = Clock::now();
    runtime.tick_into(report);
    costs.tick.add(since(t0) - (costs.deadline.total_s - deadline_before));

    if (report.interval_started && offload && c.offload_probe_interval > 0) {
      for (std::size_t k = 0; k < pipes.size(); ++k) {
        if (runtime.pipeline_offload_feasible(k)) {
          pipes[k].infeasible_streak = 0;
          continue;
        }
        if (++pipes[k].infeasible_streak % c.offload_probe_interval != 0) continue;
        runtime.add_probe_energy(k, submit(k, c.offload_probe_bytes));
      }
    }

    for (const auto& d : report.directives) {
      ReplayPipe& pipe = pipes[d.pipeline];
      double tx_j = 0.0;
      t0 = Clock::now();
      switch (d.action) {
        case FrameAction::kRunLocal:
          pipe.detector.detect_into(x, world.obstacles(), now, pipe.latest);
          costs.detect.add(since(t0));
          break;
        case FrameAction::kRunScaled:
          pipe.scaled.detect_into(x, world.obstacles(), now, pipe.latest);
          costs.detect.add(since(t0));
          break;
        case FrameAction::kOffload:
        case FrameAction::kApplyRemote:
          tx_j = submit(d.pipeline, pipe.frame_bytes);
          break;
        case FrameAction::kGate:
          break;
      }
      t0 = Clock::now();
      runtime.record(d, tx_j);
      costs.tally.add(since(t0));
    }

    obs.detections.clear();
    obs.state = x;
    obs.road = &world.road();
    obs.time_s = now;
    double newest = -std::numeric_limits<double>::infinity();
    for (const ReplayPipe& pipe : pipes) {
      if (!pipe.latest.valid) continue;
      newest = std::max(newest, pipe.latest.frame_time);
      obs.detections.insert(obs.detections.end(), pipe.latest.detections.begin(),
                            pipe.latest.detections.end());
    }
    obs.detection_age_s = newest > 0.0 ? now - newest : 0.0;

    t0 = Clock::now();
    const Control raw = policy.act(obs);
    costs.policy.add(since(t0));
    Control applied = vehicle.clamp(raw);
    bool engaged = false;
    if (c.filtered) {
      t0 = Clock::now();
      const FilterDecision decision = filter.filter(x, world.obstacles(), raw);
      (decision.engaged ? costs.filter_engaged : costs.filter_pass).add(since(t0));
      applied = decision.control;
      engaged = decision.engaged;
    }

    if (now != s.t || x.position.x != s.position.x || x.position.y != s.position.y ||
        x.heading != s.heading || x.speed != s.speed || h != s.barrier_h ||
        report.delta_max != s.delta_max || report.unconstrained != s.unconstrained ||
        report.interval_started != s.interval_started || engaged != s.filter_engaged ||
        applied.steering != s.steering || applied.throttle != s.throttle ||
        obs.detection_age_s != s.detection_age_s)
      ++mismatched_ticks;

    last_control = Control{s.steering, s.throttle};
    t0 = Clock::now();
    world.apply(last_control, c.tau_s, c.physics_substeps);
    costs.world.add(since(t0));
  }

  // The episode's totals: intervals, per-pipeline tallies and offload counts.
  bool totals_match = world.terminal() == !ep.result.timed_out &&
                      runtime.intervals() == ep.result.intervals &&
                      pipes.size() == ep.result.pipelines.size();
  for (std::size_t k = 0; totals_match && k < pipes.size(); ++k) {
    const PipelineResult& recorded = ep.result.pipelines[k];
    const BucketCounts a = runtime.tally(k).total();
    const BucketCounts b = recorded.tally.total();
    totals_match = a.local_scheduled == b.local_scheduled &&
                   a.local_deadline == b.local_deadline &&
                   a.local_fallback == b.local_fallback && a.gated == b.gated &&
                   a.offload_tx == b.offload_tx &&
                   a.remote_applied == b.remote_applied &&
                   a.scaled_local == b.scaled_local && a.tx_energy_j == b.tx_energy_j &&
                   pipes[k].submitted == recorded.offload_submitted &&
                   runtime.remote_applied(k) == recorded.offload_applied &&
                   runtime.fallbacks(k) == recorded.offload_fallbacks;
  }
  costs.state_mismatches += mismatched_ticks + (totals_match ? 0 : 1);
}

struct EpisodeCounts {
  std::uint64_t ticks = 0, engaged = 0, intervals = 0, detects = 0,
                directives = 0, submits = 0;
};

EpisodeCounts counts_of(const Recorded& ep) {
  EpisodeCounts n;
  n.ticks = ep.samples.size();
  for (const auto& s : ep.samples) n.engaged += s.filter_engaged ? 1 : 0;
  n.intervals = ep.result.intervals;
  for (const auto& p : ep.result.pipelines) {
    const BucketCounts total = p.tally.total();
    n.detects += total.local_frames() + total.scaled_local + p.offload_submitted;
    n.submits += p.offload_submitted;
    n.directives += total.total_frames();
  }
  return n;
}

// --- Phases -----------------------------------------------------------------

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec))
    if (entry.is_regular_file() && entry.path().extension() == ".bin" &&
        entry.path().filename().string().rfind("manifest", 0) != 0)
      bytes += entry.file_size();
  return bytes;
}

/// One-tick copy of `c`: run_episode acquires its deadline table (build,
/// disk load or hit) and then stops after the first base period.
ScenarioConfig one_tick(ScenarioConfig c, const std::string& dir) {
  c.max_episode_s = c.tau_s;
  c.table_cache_dir = dir;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Tracer tracer;
  Metrics m;
  const int root = tracer.open("perfbench.traced_run", -1);
  try {
    // P1: plan.
    int id = tracer.open("sim.plan_sweep", root);
    const SweepPlan plan = plan_sweep(opt.grid);
    m["sim.plan_s"] = tracer.close(id);

    // P2: the workload's job as the CLI runs it (fresh stores; a warm
    // re-run against the populated dir when the job is a cold/warm pair),
    // with thread-pool and artifact-store deltas.
    ThreadPool& pool = ThreadPool::global();
    const ThreadPoolStats pool0 = pool.stats();
    ArtifactStoreStats art;  // summed per pass: clear_all() zeroes the stores
    std::map<std::string, std::uint64_t> builds = {{"dtable", 0}, {"rphi", 0}};
    double job_s = 0.0;
    std::ostringstream report;
    std::vector<FleetResult> fleet_results;
    const int passes = opt.warm_pass ? 2 : 1;
    for (int pass = 0; pass < passes; ++pass) {
      if (pass > 0) ArtifactStoreRegistry::global().clear_all();
      const ArtifactStoreStats art0 = artifact_totals();
      const auto builds0 = builds_by_kind();
      std::ostringstream pass_report;
      if (!opt.fleet) {
        id = tracer.open(pass == 0 ? "sim.run_sweep" : "sim.run_sweep.warm", root);
        const std::vector<SweepRow> rows = run_sweep(opt.grid);
        job_s += tracer.close(id);
        write_sweep_report(pass_report, "csv", opt.grid, rows);
      } else {
        fleet_results.clear();
        for (std::size_t p = 0; p < plan.points.size(); ++p) {
          FleetExperimentConfig fc;
          fc.scenario = plan.resolved[p];
          fc.rounds = opt.rounds;
          fc.base_seed = opt.grid.base_seed;
          fc.threads = opt.grid.threads;
          id = tracer.open("sim.run_fleet_experiment", root);
          fleet_results.push_back(run_fleet_experiment(fc));
          job_s += tracer.close(id);
        }
        write_fleet_report(pass_report, opt.grid, plan.points, fleet_results);
      }
      const ArtifactStoreStats art1 = artifact_totals();
      art.hits += art1.hits - art0.hits;
      art.misses += art1.misses - art0.misses;
      art.builds += art1.builds - art0.builds;
      art.waits += art1.waits - art0.waits;
      art.lock_waits += art1.lock_waits - art0.lock_waits;
      art.disk_loads += art1.disk_loads - art0.disk_loads;
      art.disk_stores += art1.disk_stores - art0.disk_stores;
      const auto builds1 = builds_by_kind();
      for (auto& [kind, n] : builds) n += builds1.at(kind) - builds0.at(kind);
      if (pass == 0) report << pass_report.str();
      else if (pass_report.str() != report.str())
        die("warm pass report differs from the cold pass");
    }
    {
      std::ofstream out(opt.report);
      out << report.str();
    }
    const ThreadPoolStats pool1 = pool.stats();
    m["util.pool_tasks"] = static_cast<double>(pool1.submitted - pool0.submitted);
    m["util.pool_steals"] = static_cast<double>(pool1.steals - pool0.steals);
    m["util.pool_inline"] = static_cast<double>(pool1.inline_runs - pool0.inline_runs);
    m["util.pool_busy_frac"] =
        job_s > 0.0 ? (pool1.busy_s - pool0.busy_s) /
                          (job_s * static_cast<double>(pool.size()))
                    : 0.0;
    const double hits = static_cast<double>(art.hits);
    const double misses = static_cast<double>(art.misses);
    m["core.artifact.hits"] = hits;
    m["core.artifact.misses"] = misses;
    m["core.artifact.builds"] = static_cast<double>(art.builds);
    m["core.artifact.waits"] = static_cast<double>(art.waits);
    m["core.artifact.lock_waits"] = static_cast<double>(art.lock_waits);
    m["core.artifact.disk_loads"] = static_cast<double>(art.disk_loads);
    m["core.artifact.disk_stores"] = static_cast<double>(art.disk_stores);
    m["core.artifact.hit_frac"] = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    m["safety.table_builds.dtable"] = static_cast<double>(builds["dtable"]);
    m["safety.table_builds.rphi"] = static_cast<double>(builds["rphi"]);

    // P3: each distinct table, cold (build + disk store) then warm (disk
    // load) through a one-tick run_episode, which takes the same store path
    // as every episode.
    std::vector<std::size_t> firsts;
    {
      std::set<std::uint64_t> seen;
      for (std::size_t p = 0; p < plan.points.size(); ++p)
        if (plan.digests[p] != 0 && seen.insert(plan.digests[p]).second)
          firsts.push_back(p);
    }
    const std::string table_dir = opt.scratch + "/tables";
    std::filesystem::remove_all(table_dir);
    std::vector<double> build_ms;
    double warm_s = 0.0;
    for (const bool cold : {true, false}) {
      ArtifactStoreRegistry::global().clear_all();
      for (const std::size_t p : firsts) {
        id = tracer.open(cold ? "core.artifact.get.cold" : "core.artifact.get.warm", root);
        (void)run_episode(one_tick(plan.resolved[p], table_dir));
        const double s = tracer.close(id);
        if (cold) build_ms.push_back(1e3 * s);
        else warm_s += s;
      }
    }
    m["safety.table_build_ms_p50"] = quantile_of(build_ms, 0.5);
    m["core.binary_io.decode_mb_per_s"] =
        warm_s > 0.0 ? static_cast<double>(dir_bytes(table_dir)) / 1e6 / warm_s : 0.0;

    // P4: serial traced pass — run_experiment per point (fleet: the serial
    // run_fleet_experiment, then its fan-out episodes one by one) with one
    // span per attempt, recording every consumed episode for the replay.
    std::vector<Recorded> episodes;
    std::vector<double> point_s;
    double replay_s = 0.0;
    double traced_s = 0.0;
    std::uint64_t used = 0, attempts = 0;
    for (std::size_t p = 0; p < plan.points.size(); ++p) {
      if (!opt.fleet) {
        ExperimentConfig ec;
        ec.scenario = plan.resolved[p];
        ec.episodes = opt.grid.episodes;
        ec.base_seed = opt.grid.base_seed;
        ec.max_attempts = opt.grid.max_attempts;
        ec.require_success = opt.grid.require_success;
        ec.threads = 1;
        const int point = tracer.open("sim.run_experiment", root);
        double last = tracer.now();
        ec.trace_tap = [&](std::uint64_t seed, const EpisodeResult& result,
                           const EpisodeTrace& trace) {
          const double end = tracer.now();
          tracer.add("sim.run_episode", last, end, point);
          Recorded r{plan.resolved[p], result, trace.samples(), trace.offloads(),
                     end - last};
          r.config.seed = seed;
          episodes.push_back(std::move(r));
          last = tracer.now();
        };
        const ExperimentResult result = run_experiment(ec);
        const double s = tracer.close(point);
        point_s.push_back(s);
        traced_s += s;
        used += static_cast<std::uint64_t>(result.episodes_used);
        attempts += static_cast<std::uint64_t>(result.attempts);
      } else {
        FleetExperimentConfig fc;
        fc.scenario = plan.resolved[p];
        fc.rounds = opt.rounds;
        fc.base_seed = opt.grid.base_seed;
        fc.threads = 1;
        id = tracer.open("sim.run_fleet_experiment.serial", root);
        (void)run_fleet_experiment(fc);
        const double serial_s = tracer.close(id);
        point_s.push_back(serial_s);
        const std::size_t slots = static_cast<std::size_t>(opt.rounds) *
                                  static_cast<std::size_t>(fc.scenario.fleet.vehicles);
        const int point = tracer.open("sim.fleet_fanout", root);
        double fanout_s = 0.0;
        EpisodeTrace trace;
        for (std::size_t i = 0; i < slots; ++i) {
          Recorded r;
          r.config = fc.scenario;
          r.config.seed = fc.base_seed + i;
          trace.clear();
          const int ep = tracer.open("sim.run_episode", point);
          r.result = run_episode(r.config, &trace);
          r.span_s = tracer.close(ep);
          fanout_s += r.span_s;
          r.samples = trace.samples();
          r.offloads = trace.offloads();
          episodes.push_back(std::move(r));
        }
        traced_s += tracer.close(point);
        replay_s += std::max(0.0, serial_s - fanout_s);
        used += slots;
        attempts += slots;
      }
    }
    // Fleet: the cluster replay's share of the serial point time (the
    // serial point minus its fan-out episodes run one by one).
    m["net.replay_frac"] =
        opt.fleet && replay_s + traced_s > 0.0 ? replay_s / (replay_s + traced_s)
                                               : 0.0;

    // P4': the same serial work untraced — no spans, no sample capture —
    // for the tracing overhead.
    const auto u0 = Clock::now();
    for (std::size_t p = 0; p < plan.points.size(); ++p) {
      if (!opt.fleet) {
        ExperimentConfig ec;
        ec.scenario = plan.resolved[p];
        ec.episodes = opt.grid.episodes;
        ec.base_seed = opt.grid.base_seed;
        ec.max_attempts = opt.grid.max_attempts;
        ec.require_success = opt.grid.require_success;
        ec.threads = 1;
        (void)run_experiment(ec);
      } else {
        const std::size_t slots = static_cast<std::size_t>(opt.rounds) *
                                  static_cast<std::size_t>(plan.resolved[p].fleet.vehicles);
        ScenarioConfig c = plan.resolved[p];
        for (std::size_t i = 0; i < slots; ++i) {
          c.seed = opt.grid.base_seed + i;
          (void)run_episode(c);
        }
      }
    }
    const double untraced_s = since(u0);
    m["trace.overhead_frac"] = untraced_s > 0.0 ? traced_s / untraced_s - 1.0 : 0.0;

    std::vector<double> episode_ms;
    std::set<std::string> distinct;
    std::uint64_t unsafe = 0, submits = 0, fallbacks = 0;
    for (const Recorded& r : episodes) {
      episode_ms.push_back(1e3 * r.span_s);
      if (r.result.collided || r.result.min_h < 0.0) ++unsafe;
      for (const auto& pr : r.result.pipelines) {
        submits += pr.offload_submitted;
        fallbacks += pr.offload_fallbacks;
      }
      // Episode content without its identity: byte-equal blocks are the
      // same simulation run twice.
      EpisodeTrace t;
      for (const auto& s : r.samples) t.add(s);
      for (const auto& o : r.offloads) t.add_offload(o);
      std::string block;
      append_trace_episode(block, TraceEpisodeInfo{},
                           summarize_episode(r.config, r.result), t);
      distinct.insert(std::move(block));
    }
    double point_mean = 0.0;
    for (const double s : point_s) point_mean += s;
    point_mean /= std::max<std::size_t>(1, point_s.size());
    m["sim.episode_ms_p50"] = quantile_of(episode_ms, 0.5);
    m["sim.episode_ms_p99"] = quantile_of(episode_ms, 0.99);
    m["sim.point_s_max_over_mean"] =
        point_mean > 0.0 ? *std::max_element(point_s.begin(), point_s.end()) / point_mean
                         : 0.0;
    m["sim.useful_frac"] = attempts > 0 ? static_cast<double>(used) / static_cast<double>(attempts) : 0.0;
    m["sim.fleet_distinct_episode_frac"] =
        episodes.empty() ? 0.0 : static_cast<double>(distinct.size()) /
                                     static_cast<double>(episodes.size());
    m["safety.unsafe_episodes"] = static_cast<double>(unsafe);
    m["net.offload_submits"] = static_cast<double>(submits);
    m["net.offload_fallbacks"] = static_cast<double>(fallbacks);

    // P5: intra-episode layer replay, repeated over the recorded episodes
    // while the time budget lasts (at least one full pass); per-call costs
    // are per episode, then weighted by that episode's own call counts.
    const double bias = timer_bias_s();
    const double budget_end = tracer.now() + opt.seconds;
    std::vector<LayerCosts> per_episode(episodes.size());
    id = tracer.open("perfbench.layer_replay", root);
    int passes_done = 0;
    do {
      for (std::size_t e = 0; e < episodes.size(); ++e) {
        // The whole and its parts, measured back to back.
        const auto t0 = Clock::now();
        (void)run_episode(episodes[e].config);
        per_episode[e].whole.add(since(t0));
        replay_episode(episodes[e], per_episode[e]);
      }
      ++passes_done;
    } while (tracer.now() < budget_end && passes_done < 20);
    tracer.close(id);
    const auto mean = [bias](const Cost& c) {
      return c.calls > 0 ? std::max(0.0, c.mean_s() - bias) : 0.0;
    };

    LayerCosts all;
    double attributed_s = 0.0, episodes_s = 0.0;
    std::uint64_t filter_calls = 0, filter_engaged = 0, mismatches = 0;
    std::uint64_t local = 0, gate = 0, scaled_runs = 0, offload = 0;
    const auto merge = [](Cost& into, const Cost& c) {
      into.total_s += c.total_s;
      into.calls += c.calls;
    };
    for (std::size_t e = 0; e < episodes.size(); ++e) {
      const LayerCosts& c = per_episode[e];
      const Recorded& r = episodes[e];
      merge(all.world, c.world);
      merge(all.barrier, c.barrier);
      merge(all.filter_pass, c.filter_pass);
      merge(all.filter_engaged, c.filter_engaged);
      merge(all.deadline, c.deadline);
      merge(all.detect, c.detect);
      merge(all.policy, c.policy);
      merge(all.tick, c.tick);
      merge(all.tally, c.tally);
      merge(all.table_get, c.table_get);
      merge(all.arrivals, c.arrivals);
      merge(all.link, c.link);
      mismatches += c.state_mismatches;
      const EpisodeCounts n = counts_of(r);
      if (r.config.filtered) {
        filter_calls += n.ticks;
        filter_engaged += n.engaged;
      }
      const double t = static_cast<double>(n.ticks);
      const double engaged_cost =
          mean(c.filter_engaged.calls > 0 ? c.filter_engaged : c.filter_pass);
      const double pass_cost =
          mean(c.filter_pass.calls > 0 ? c.filter_pass : c.filter_engaged);
      attributed_s += t * (mean(c.world) + mean(c.barrier) + mean(c.policy) +
                           mean(c.tick)) +
                      static_cast<double>(n.intervals) * mean(c.deadline) +
                      static_cast<double>(n.detects) * mean(c.detect) +
                      static_cast<double>(n.directives) * mean(c.tally) +
                      static_cast<double>(n.submits) * mean(c.link) +
                      static_cast<double>(c.arrivals.calls > 0 ? n.ticks : 0) *
                          mean(c.arrivals) +
                      mean(c.table_get) +
                      (r.config.filtered
                           ? static_cast<double>(n.ticks - n.engaged) * pass_cost +
                                 static_cast<double>(n.engaged) * engaged_cost
                           : 0.0);
      episodes_s += c.whole.mean_s();
      for (const auto& pr : r.result.pipelines) {
        const BucketCounts b = pr.tally.total();
        local += b.local_frames();
        gate += b.gated;
        scaled_runs += b.scaled_local;
        offload += b.offload_tx + b.remote_applied;
      }
    }
    const auto us = [&](const Cost& c) { return 1e6 * mean(c); };
    m["dynamics.world_step_us"] = us(all.world);
    m["safety.barrier_us"] = us(all.barrier);
    m["safety.filter_us_pass"] = us(all.filter_pass);
    m["safety.filter_us_engaged"] = us(all.filter_engaged);
    m["safety.deadline_eval_us"] = us(all.deadline);
    m["safety.filter_calls"] = static_cast<double>(filter_calls);
    m["safety.filter_engaged"] = static_cast<double>(filter_engaged);
    m["sensors.detect_us"] = us(all.detect);
    m["control.policy_act_us"] = us(all.policy);
    m["core.runtime_tick_us"] = us(all.tick);
    m["energy.tally_us"] = us(all.tally);
    m["net.link_submit_us"] = us(all.link);
    m["net.link_arrivals_us"] = us(all.arrivals);
    m["core.artifact.get_us_hit"] = us(all.table_get);
    m["core.directives.run_local"] = static_cast<double>(local);
    m["core.directives.gate"] = static_cast<double>(gate);
    m["core.directives.scaled"] = static_cast<double>(scaled_runs);
    m["core.directives.offload"] = static_cast<double>(offload);
    m["sim.episode.unattributed_frac"] =
        episodes_s > 0.0 ? 1.0 - attributed_s / episodes_s : 0.0;
    m["perfbench.replay_passes"] = passes_done;
    m["perfbench.timer_bias_us"] = 1e6 * bias;
    m["perfbench.replay_state_mismatches"] = static_cast<double>(mismatches);

    // P6: trace encode and decode of the recorded episodes.
    std::ostringstream stream;
    id = tracer.open("sim.trace.TraceStreamWriter", root);
    {
      TraceStreamWriter writer(stream, plan.run_digest);
      for (const Recorded& r : episodes) {
        TraceEpisodeInfo info;
        info.seed = r.config.seed;
        writer.begin_episode(info);
        for (const auto& s : r.samples) writer.sample(s);
        for (const auto& o : r.offloads) writer.offload(o);
        writer.end_episode(summarize_episode(r.config, r.result));
      }
      writer.finish();
    }
    const double encode_s = tracer.close(id);
    const std::string bytes = stream.str();
    id = tracer.open("sim.trace.TraceStreamReader", root);
    std::istringstream in(bytes);
    TraceStreamReader reader(in);
    TraceRecord record;
    while (reader.next(record)) {
    }
    const double decode_s = tracer.close(id);
    const double mb = static_cast<double>(bytes.size()) / 1e6;
    m["sim.trace.bytes_per_episode"] =
        episodes.empty() ? 0.0 : static_cast<double>(bytes.size()) /
                                     static_cast<double>(episodes.size());
    m["sim.trace.encode_mb_per_s"] = encode_s > 0.0 ? mb / encode_s : 0.0;
    m["sim.trace.decode_mb_per_s"] = decode_s > 0.0 ? mb / decode_s : 0.0;

    tracer.close(root);
    const std::vector<double> self = tracer.self_times();
    double experiment_self = 0.0;
    for (std::size_t i = 0; i < tracer.spans().size(); ++i)
      if (tracer.spans()[i].name == "sim.run_experiment" ||
          tracer.spans()[i].name == "sim.fleet_fanout")
        experiment_self += self[i];
    m["sim.run_experiment.self_s"] = experiment_self;
  } catch (const std::exception& e) {
    std::cerr << "perfbench-trace: " << e.what() << "\n";
    return 1;
  }
  write_spans(opt.spans, tracer);

  std::cout << std::setprecision(10) << "{";
  bool first = true;
  for (const auto& [name, value] : m) {
    std::cout << (first ? "" : ", ") << "\"" << name << "\": "
              << (std::isfinite(value) ? value : 0.0);
    first = false;
  }
  std::cout << "}\n";
  return 0;
}
