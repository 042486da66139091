#include "sim/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/expect.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace seo {

EnergyComparison ExperimentResult::pipeline_model_energy(
    std::size_t i, const PlatformPowerModel& pm) const {
  SEO_EXPECT(i < pipelines.size());
  const auto& p = pipelines[i];
  return model_energy(p.tally, p.model, p.sensor.period_s, pm,
                      &p.scaled_model);
}

EnergyComparison ExperimentResult::combined_model_energy(
    const PlatformPowerModel& pm) const {
  EnergyComparison total;
  for (std::size_t i = 0; i < pipelines.size(); ++i)
    total += pipeline_model_energy(i, pm);
  return total;
}

namespace {

/// Folds one finished episode into the aggregate — the single merge path
/// shared by the serial and batched engines, applied strictly in attempt
/// order so the aggregate never depends on completion order.
void consume_episode(const ExperimentConfig& config,
                     const EpisodeResult& episode, ExperimentResult& result) {
  ++result.attempts;
  // Outcome counters cover every consumed attempt, so sweep rows report
  // collision/off-road/timeout rates even when require_success is off and
  // the failed episodes merge into the aggregate below.
  if (episode.collided) ++result.collisions;
  if (episode.off_road) ++result.off_roads;
  if (episode.timed_out) ++result.timeouts;
  if (config.require_success && !episode.success()) {
    ++result.failures;
    return;
  }

  SEO_ASSERT(episode.pipelines.size() == result.pipelines.size());
  for (std::size_t i = 0; i < episode.pipelines.size(); ++i) {
    auto& agg = result.pipelines[i];
    const auto& pr = episode.pipelines[i];
    agg.delta = pr.delta;
    agg.tally.merge(pr.tally);
    agg.offload_submitted += pr.offload_submitted;
    agg.offload_applied += pr.offload_applied;
    agg.offload_fallbacks += pr.offload_fallbacks;
  }
  for (const int key : episode.deadline_hist.keys())
    result.deadline_hist.add(key, episode.deadline_hist.count(key));
  result.intervals += episode.intervals;
  result.unconstrained_intervals += episode.unconstrained_intervals;
  result.avg_speed.add(episode.avg_speed);
  result.duration_s.add(episode.duration_s);
  // min_h is +inf for obstacle-free scenarios (vacuously safe).
  if (std::isfinite(episode.min_h)) result.min_h.add(episode.min_h);
  result.filter_engagements += episode.filter_engagements;
  ++result.episodes_used;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  SEO_EXPECT(config.episodes >= 1);
  SEO_EXPECT(config.max_attempts >= config.episodes);

  ExperimentResult result;
  // Seed the aggregates with pipeline identities from the scenario config.
  for (const auto& pc : config.scenario.pipelines) {
    if (pc.criticality != Criticality::kOptimizable) continue;
    PipelineAggregate agg;
    agg.name = pc.name;
    agg.sensor = pc.sensor;
    agg.model = pc.model;
    agg.scaled_model = config.scenario.scaled_model;
    agg.tally = PipelineTally(config.scenario.deadline_cap);
    result.pipelines.push_back(std::move(agg));
  }

  const std::size_t workers = ThreadPool::resolve_threads(config.threads);

  // Wave buffer hoisted out of the loop: the first (largest) wave sizes it
  // and later waves reuse the capacity, so steady-state waves perform no
  // per-wave vector allocation.  The trace slots (only populated when a
  // tap is attached) are reused the same way — clear() keeps capacity, so
  // steady-state traced waves record without allocating either.
  std::vector<EpisodeResult> episodes;
  std::vector<EpisodeTrace> traces;

  // Attempt k is fully determined by seed base_seed + k, so the batched
  // engine runs waves of independent attempts and merges them in attempt
  // order.  A wave may overshoot (episodes beyond the target finish and are
  // discarded unmerged); the merged prefix — and hence every field of the
  // result, including `attempts` — matches the serial engine exactly.
  while (result.episodes_used < config.episodes &&
         result.attempts < config.max_attempts) {
    // Speculation budget: episodes still needed plus one retry per failure
    // seen so far.  A clean run never simulates episodes the merge cannot
    // consume, while failure-heavy runs widen back toward full `workers`
    // parallelism instead of degenerating to serial retries.  Oversized
    // waves stay correct regardless — surplus episodes are discarded
    // unmerged, so every merged field matches the serial engine.
    const std::size_t budget =
        static_cast<std::size_t>(config.episodes - result.episodes_used) +
        static_cast<std::size_t>(result.failures);
    const std::size_t wave =
        std::min({workers <= 1 ? std::size_t{1} : workers,
                  static_cast<std::size_t>(config.max_attempts -
                                           result.attempts),
                  budget});
    const auto first_attempt = static_cast<std::uint64_t>(result.attempts);

    episodes.resize(wave);
    if (config.trace_tap) traces.resize(wave);
    const auto run_range = [&](IndexCursor& attempts) {
      // One scenario copy per task (not per episode): only the seed differs
      // between attempts, so the task mutates that field alone on its
      // private copy.
      ScenarioConfig scenario = config.scenario;
      for (std::size_t k = 0; attempts.claim(k);) {
        scenario.seed = config.base_seed + first_attempt + k;
        if (config.trace_tap) {
          traces[k].clear();
          episodes[k] = run_episode(scenario, &traces[k]);
        } else {
          episodes[k] = run_episode(scenario);
        }
      }
    };
    ThreadPool::run_capped(0, wave, workers, run_range);

    for (std::size_t k = 0; k < wave; ++k) {
      if (result.episodes_used >= config.episodes) break;
      if (config.trace_tap)
        config.trace_tap(config.base_seed + first_attempt + k, episodes[k],
                         traces[k]);
      consume_episode(config, episodes[k], result);
    }
  }

  if (result.episodes_used < config.episodes) {
    log_warn() << "experiment finished with only " << result.episodes_used
               << "/" << config.episodes << " successful episodes after "
               << result.attempts << " attempts";
  }
  return result;
}

}  // namespace seo
