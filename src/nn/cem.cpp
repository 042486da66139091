#include "nn/cem.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/expect.hpp"
#include "util/thread_pool.hpp"

namespace seo::nn {

CemResult cem_optimize(const std::function<double(const Vector&)>& objective,
                       const Vector& initial_mean, const CemConfig& config,
                       Rng& rng) {
  SEO_EXPECT(!initial_mean.empty());
  SEO_EXPECT(config.population >= 2);
  SEO_EXPECT(config.elites >= 1 && config.elites <= config.population);
  SEO_EXPECT(config.init_stddev > 0.0);

  const std::size_t dim = initial_mean.size();
  Vector mean = initial_mean;
  Vector stddev(dim, config.init_stddev);

  CemResult result;
  result.best_parameters = mean;
  result.best_score = -std::numeric_limits<double>::infinity();

  std::vector<Vector> samples(config.population, Vector(dim));
  std::vector<double> scores(config.population);
  std::vector<std::size_t> order(config.population);

  const std::size_t workers = ThreadPool::resolve_threads(config.threads);

  for (std::size_t gen = 0; gen < config.generations; ++gen) {
    // Sampling stays serial so the rng stream is identical regardless of
    // thread count; only the (embarrassingly parallel) scoring fans out.
    for (std::size_t i = 0; i < config.population; ++i)
      for (std::size_t d = 0; d < dim; ++d)
        samples[i][d] = mean[d] + stddev[d] * rng.gaussian();
    const auto score_range = [&](IndexCursor& members) {
      for (std::size_t i = 0; members.claim(i);)
        scores[i] = objective(samples[i]);
    };
    ThreadPool::run_capped(0, config.population, workers, score_range);

    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return scores[a] > scores[b];
    });

    if (scores[order[0]] > result.best_score) {
      result.best_score = scores[order[0]];
      result.best_parameters = samples[order[0]];
    }
    result.generation_best.push_back(scores[order[0]]);

    // Refit mean/stddev to the elite set.
    Vector new_mean(dim, 0.0);
    for (std::size_t e = 0; e < config.elites; ++e)
      axpy(1.0 / static_cast<double>(config.elites), samples[order[e]],
           new_mean);
    Vector new_var(dim, 0.0);
    for (std::size_t e = 0; e < config.elites; ++e) {
      const auto& s = samples[order[e]];
      for (std::size_t d = 0; d < dim; ++d) {
        const double diff = s[d] - new_mean[d];
        new_var[d] += diff * diff / static_cast<double>(config.elites);
      }
    }
    mean = new_mean;
    for (std::size_t d = 0; d < dim; ++d) {
      stddev[d] = std::max(config.min_stddev,
                           std::sqrt(new_var[d]) * config.stddev_decay);
    }
  }
  return result;
}

}  // namespace seo::nn
