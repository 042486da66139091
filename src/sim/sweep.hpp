// Parameter-grid sweep engine — systematic exploration of the scenario
// space the paper samples only pointwise.  A sweep is (library scenarios) x
// (axes over scenario_io keys), expanded cartesian or paired, with every
// grid point running a full run_experiment shard.  Shards fan out across
// the ThreadPool in digest-aware order, one point per claim — points
// sharing a deadline-table digest are scheduled adjacently so each
// geometry class is built (or disk-loaded) once and its siblings reuse
// it — and land in index-addressed slots, so results are merged in grid
// order and any thread count (and any schedule) reproduces the serial
// sweep exactly (locked down by tests/test_sweep.cpp byte-identity on the
// reports).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/scenario_library.hpp"

namespace seo {

/// One swept dimension: a scenario_io key and the values it takes.
/// Values are strings exactly as they would appear in a config file, so an
/// axis can sweep doubles, ints, bools or enum names alike.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

/// How axes combine: kCartesian takes the full cross product; kPaired zips
/// the axes element-wise (all axes must then share one length).
enum class GridMode { kCartesian, kPaired };

/// One grid point: a scenario base plus the axis assignment to overlay.
struct SweepPoint {
  std::size_t index = 0;     ///< position in grid order (deterministic)
  std::string scenario;      ///< library base name
  std::vector<std::pair<std::string, std::string>> assignment;

  /// "scenario key=value key=value" — stable row label for reports.
  std::string label() const;
};

struct SweepConfig {
  /// Library scenario names forming the outermost grid dimension.
  std::vector<std::string> scenarios = {"paper_default"};
  std::vector<SweepAxis> axes;
  GridMode grid = GridMode::kCartesian;

  /// Overrides applied to every point before its axis assignment (e.g. a
  /// shortened route for smoke grids).  Axis values win on conflicts.
  std::vector<std::pair<std::string, std::string>> base_overrides;

  // Per-point experiment shape (see ExperimentConfig).
  int episodes = 25;
  int max_attempts = 250;
  std::uint64_t base_seed = 1000;
  bool require_success = true;

  /// Grid-point parallelism: 1 = serial, 0 = all hardware threads, n = up
  /// to n shards in flight.  Each shard runs its experiment serially, so
  /// the shard itself is deterministic and the sweep result is identical
  /// for every thread count.
  int threads = 1;

  /// Optional streaming trace sink (`sweep --trace-out`): every consumed
  /// episode of every grid point is serialized into the binary seo-trace
  /// stream, one block per grid point committed in grid order — the bytes
  /// are identical for every thread count.  Episodes stream out as points
  /// complete; no per-episode sample vectors are retained.  The caller
  /// finishes the sink after run_sweep returns.
  OrderedTraceSink* trace_sink = nullptr;
};

/// One completed grid point: the resolved scenario (axis overrides applied)
/// and its experiment aggregate.
struct SweepRow {
  SweepPoint point;
  ScenarioConfig scenario;
  ExperimentResult result;
};

/// Expands the grid in deterministic order: scenarios outermost, then axes
/// left to right (cartesian) or zipped (paired).  Throws ContractViolation
/// on unknown scenario names, unrecognized axis keys, empty axes, or
/// mismatched paired lengths.
std::vector<SweepPoint> expand_grid(const SweepConfig& config);

/// Resolves one point's full ScenarioConfig (library base + base_overrides
/// + axis assignment, applied via scenario_io).
ScenarioConfig resolve_point(const SweepConfig& config,
                             const SweepPoint& point);

/// Everything deterministic about a sweep before any episode runs: the
/// expanded grid, each point's resolved scenario and deadline-table digest,
/// the digest-grouped execution schedule, and the run digest (every point's
/// table digest mixed in grid order — the identity shards and trace merges
/// key on).  A plan is a pure function of the config, so every `--shard`
/// run given the same config computes the identical plan independently,
/// on whichever host it runs.
struct SweepPlan {
  std::vector<SweepPoint> points;        ///< grid order
  std::vector<ScenarioConfig> resolved;  ///< per point (overrides applied)
  std::vector<std::uint64_t> digests;    ///< per point scenario_table_digest
  /// Execution schedule: (digest-group rank, grid index), sorted — points
  /// sharing a table digest are adjacent so each geometry class builds once
  /// and its siblings hit warm.
  std::vector<std::pair<std::size_t, std::size_t>> order;
  std::uint64_t run_digest = 0;

  /// The grid indices shard `shard` of `shards` owns: its contiguous slice
  /// of the digest-grouped schedule (so a shard keeps whole geometry
  /// classes and stays cache-warm), returned sorted ascending.  Every index
  /// lands in exactly one shard; trailing shards may be empty when
  /// shards > points.
  std::vector<std::size_t> shard_points(std::size_t shard,
                                        std::size_t shards) const;
};

/// Expands and schedules `config` (see SweepPlan).  Throws exactly where
/// expand_grid does.
SweepPlan plan_sweep(const SweepConfig& config);

/// Runs every grid point and returns rows in grid order.  Deterministic
/// for a fixed config, independent of `config.threads`.
std::vector<SweepRow> run_sweep(const SweepConfig& config);

/// Runs shard `shard` of `shards` (the plan's slice for that shard) and
/// returns its rows ordered by ascending grid index.  With a trace sink
/// attached, blocks commit under local dense sequence numbers (the point's
/// rank within the shard), so the shard's stream is itself a valid
/// seo-trace stream sorted by grid-point index with the full run's
/// run_digest in the header — exactly what trace-merge k-way-merges back
/// into the unsharded byte stream.  shard=0, shards=1 is run_sweep.
std::vector<SweepRow> run_sweep_shard(const SweepConfig& config,
                                      std::size_t shard, std::size_t shards);

/// The CI smoke grid: 4 library scenarios x (2 channel scales x 2 deadline
/// caps) on a shortened route — 16 points that finish in seconds.  Shared
/// by `sweep --smoke` and the byte-identity tests so the grid CI compares
/// is exactly the grid the tests lock down.
SweepConfig smoke_sweep();

}  // namespace seo
