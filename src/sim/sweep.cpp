#include "sim/sweep.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "core/fingerprint.hpp"
#include "sim/scenario_io.hpp"
#include "sim/simulation.hpp"
#include "util/expect.hpp"
#include "util/thread_pool.hpp"

namespace seo {

std::string SweepPoint::label() const {
  std::string out = scenario;
  for (const auto& [key, value] : assignment)
    out += " " + key + "=" + value;
  return out;
}

namespace {

void validate(const SweepConfig& config) {
  SEO_EXPECT(!config.scenarios.empty());
  SEO_EXPECT(config.episodes >= 1);
  SEO_EXPECT(config.max_attempts >= config.episodes);
  for (const auto& name : config.scenarios)
    make_scenario(name);  // throws with the valid names on a typo
  for (const auto& axis : config.axes) {
    SEO_EXPECT(!axis.values.empty());
    if (!is_scenario_key(axis.key))
      throw ContractViolation("unknown sweep axis key: " + axis.key);
    if (axis.key == "scenario")
      throw ContractViolation(
          "sweep the scenario dimension via SweepConfig::scenarios, not an "
          "axis");
  }
  for (const auto& [key, value] : config.base_overrides) {
    (void)value;
    if (!is_scenario_key(key))
      throw ContractViolation("unknown sweep override key: " + key);
    if (key == "scenario")
      throw ContractViolation(
          "a 'scenario' base override would silently replace every grid "
          "point's library base while rows keep their labels; use "
          "SweepConfig::scenarios");
  }
  if (config.grid == GridMode::kPaired && !config.axes.empty()) {
    const std::size_t len = config.axes.front().values.size();
    for (const auto& axis : config.axes)
      if (axis.values.size() != len)
        throw ContractViolation(
            "paired sweep axes must share one length (axis '" + axis.key +
            "' has " + std::to_string(axis.values.size()) + ", expected " +
            std::to_string(len) + ")");
  }
}

}  // namespace

std::vector<SweepPoint> expand_grid(const SweepConfig& config) {
  validate(config);

  // Axis assignments first (identical for every scenario).
  std::vector<std::vector<std::pair<std::string, std::string>>> assignments;
  if (config.axes.empty()) {
    assignments.push_back({});
  } else if (config.grid == GridMode::kPaired) {
    const std::size_t len = config.axes.front().values.size();
    for (std::size_t i = 0; i < len; ++i) {
      std::vector<std::pair<std::string, std::string>> a;
      for (const auto& axis : config.axes)
        a.emplace_back(axis.key, axis.values[i]);
      assignments.push_back(std::move(a));
    }
  } else {
    // Cartesian product, last axis fastest (odometer order).
    assignments.push_back({});
    for (const auto& axis : config.axes) {
      std::vector<std::vector<std::pair<std::string, std::string>>> next;
      next.reserve(assignments.size() * axis.values.size());
      for (const auto& prefix : assignments) {
        for (const auto& value : axis.values) {
          auto a = prefix;
          a.emplace_back(axis.key, value);
          next.push_back(std::move(a));
        }
      }
      assignments = std::move(next);
    }
  }

  std::vector<SweepPoint> points;
  points.reserve(config.scenarios.size() * assignments.size());
  for (const auto& scenario : config.scenarios) {
    for (const auto& assignment : assignments) {
      SweepPoint p;
      p.index = points.size();
      p.scenario = scenario;
      p.assignment = assignment;
      points.push_back(std::move(p));
    }
  }
  return points;
}

SweepConfig smoke_sweep() {
  SweepConfig config;
  config.scenarios = {"paper_default", "dense_field", "lossy_channel",
                      "unfiltered_baseline"};
  config.axes = {{"channel_mbps", {"8", "20"}},
                 {"deadline_cap", {"2", "4"}}};
  // Short route + small lookup table keep the 16-point grid fast enough
  // for CI and unit tests while still exercising the full stack.
  config.base_overrides = {{"road_length", "45"},
                           {"max_episode_s", "12"},
                           {"table_distance_bins", "15"},
                           {"table_bearing_bins", "9"},
                           {"table_speed_bins", "9"}};
  config.episodes = 2;
  config.max_attempts = 8;
  config.require_success = false;
  return config;
}

ScenarioConfig resolve_point(const SweepConfig& config,
                             const SweepPoint& point) {
  ScenarioConfig scenario = make_scenario(point.scenario);
  KeyValueConfig overrides;
  for (const auto& [key, value] : config.base_overrides)
    overrides.set(key, value);
  for (const auto& [key, value] : point.assignment)
    overrides.set(key, value);
  const auto unknown = apply_overrides(overrides, scenario);
  SEO_ASSERT(unknown.empty());  // validate() already screened the keys
  return scenario;
}

SweepPlan plan_sweep(const SweepConfig& config) {
  SweepPlan plan;
  plan.points = expand_grid(config);

  // Resolve every point up front (cheap config overlays) so the scheduler
  // can see each point's deadline-table digest before any episode runs.
  plan.resolved.reserve(plan.points.size());
  for (const auto& point : plan.points)
    plan.resolved.push_back(resolve_point(config, point));

  // Digest-aware scheduling: execute grid points grouped by the table
  // digest run_episode will request, groups ordered by first appearance.
  // Threads claim points one at a time in this order and shards take
  // contiguous slices of it, so a geometry class's points run close
  // together: the first builds (or disk-loads) the table, and a sibling
  // claimed meanwhile waits on that single-flight build instead of
  // repeating it.  Grouping is purely a warmth optimization.  Points with
  // nothing shareable (digest 0) keep their own slot in the order.
  plan.digests.resize(plan.points.size());
  plan.order.reserve(plan.points.size());
  {
    std::unordered_map<std::uint64_t, std::size_t> group_rank;
    std::size_t next_rank = 0;
    for (std::size_t i = 0; i < plan.points.size(); ++i) {
      const std::uint64_t digest = scenario_table_digest(plan.resolved[i]);
      plan.digests[i] = digest;
      std::size_t rank = 0;
      if (digest == 0) {
        rank = next_rank++;
      } else {
        const auto [it, inserted] = group_rank.try_emplace(digest, next_rank);
        if (inserted) ++next_rank;
        rank = it->second;
      }
      plan.order.emplace_back(rank, i);
    }
    std::sort(plan.order.begin(), plan.order.end());  // grid order per group
  }

  // The stream header's run digest: every point's table digest mixed in
  // grid order — the canonical identity the distributed sweep shards and
  // merges on.  Always over the full grid, so a 1-of-N shard carries the
  // whole run's identity and cannot merge with a shard of a different run.
  FingerprintHasher hasher;
  for (const std::uint64_t digest : plan.digests) hasher.mix(digest);
  plan.run_digest = hasher.digest();
  return plan;
}

std::vector<std::size_t> SweepPlan::shard_points(std::size_t shard,
                                                 std::size_t shards) const {
  SEO_EXPECT(shards >= 1);
  SEO_EXPECT(shard < shards);
  // Contiguous ceil-division slices of the digest-grouped schedule: shards
  // on different hosts need a static partition, and a contiguous one keeps
  // every geometry class whole within one shard (up to the boundary points).
  const std::size_t n = order.size();
  const std::size_t grain = (n + shards - 1) / shards;
  const std::size_t lo = std::min(shard * grain, n);
  const std::size_t hi = std::min(lo + grain, n);
  std::vector<std::size_t> owned;
  owned.reserve(hi - lo);
  for (std::size_t s = lo; s < hi; ++s) owned.push_back(order[s].second);
  std::sort(owned.begin(), owned.end());
  return owned;
}

std::vector<SweepRow> run_sweep_shard(const SweepConfig& config,
                                      std::size_t shard, std::size_t shards) {
  const SweepPlan plan = plan_sweep(config);
  const std::vector<std::size_t> owned = plan.shard_points(shard, shards);
  OrderedTraceSink* const sink = config.trace_sink;
  if (sink != nullptr) sink->set_run_digest(plan.run_digest);

  // Restrict the digest-grouped schedule to the owned set, preserving its
  // order — an unsharded run (owned = everything) executes the whole
  // schedule.  Each entry carries the point's local rank, its position
  // among the owned indices: the grid index itself when unsharded, and for
  // a shard a dense sink sequence whose flush order is ascending grid
  // index — the sorted-stream property trace-merge requires.
  std::vector<std::pair<std::size_t, std::size_t>> exec;  // (grid, local)
  exec.reserve(owned.size());
  for (const auto& [rank, i] : plan.order) {
    (void)rank;
    const auto it = std::lower_bound(owned.begin(), owned.end(), i);
    if (it != owned.end() && *it == i)
      exec.emplace_back(i, static_cast<std::size_t>(it - owned.begin()));
  }

  // Each grid point is an independent shard with its own slot: shards may
  // finish in any order (and, above, deliberately run out of grid order),
  // but every result lands at its local rank and each shard's experiment
  // is internally serial, so the assembled rows — hence every report and
  // trace stream — are bit-identical to the serial sweep for every thread
  // count and schedule.
  std::vector<SweepRow> rows(owned.size());
  const std::size_t workers = ThreadPool::resolve_threads(config.threads);
  ThreadPool::run_capped(
      0, exec.size(), workers, [&](IndexCursor& schedule) {
        for (std::size_t s = 0; schedule.claim(s);) {
          const auto [i, local] = exec[s];
          ExperimentConfig experiment;
          experiment.scenario = plan.resolved[i];
          experiment.episodes = config.episodes;
          experiment.max_attempts = config.max_attempts;
          experiment.base_seed = config.base_seed;
          experiment.require_success = config.require_success;
          experiment.threads = 1;  // parallelism lives at the grid level
          // Streaming traces: the tap serializes every consumed episode
          // into this point's block, committed under the point's local
          // rank, so the sink's ordered flush reproduces the serial stream
          // byte-for-byte whatever the schedule was.
          std::string block;
          std::uint64_t block_episodes = 0;
          if (sink != nullptr) {
            TraceEpisodeInfo info;
            info.scenario_digest = plan.digests[i];
            info.point_index = static_cast<std::uint32_t>(i);
            info.label = plan.points[i].label();
            experiment.trace_tap = [&block, &block_episodes, info,
                                    &experiment](
                                       std::uint64_t seed,
                                       const EpisodeResult& episode,
                                       const EpisodeTrace& trace) mutable {
              info.seed = seed;
              append_trace_episode(
                  block, info,
                  summarize_episode(experiment.scenario, episode), trace);
              ++block_episodes;
            };
          }
          SweepRow& row = rows[local];
          row.point = plan.points[i];
          row.scenario = experiment.scenario;
          row.result = run_experiment(experiment);
          if (sink != nullptr)
            sink->commit(local, std::move(block), block_episodes);
        }
      });
  return rows;
}

std::vector<SweepRow> run_sweep(const SweepConfig& config) {
  return run_sweep_shard(config, 0, 1);
}

}  // namespace seo
