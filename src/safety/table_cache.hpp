// Content-addressed DeadlineTable caching — the safety-layer artifact
// kinds registered with the generic store (core/artifact_store.hpp).
//
// The paper's deployment model for T(x,u) is "precompute once, ship, probe
// cheaply" (section IV-C) — yet a naive harness rebuilds the full grid for
// every episode, so a sweep or fleet run pays the dominant build cost
// hundreds of times for identical geometry.  Two table kinds restore the
// paper's model inside the process (and, optionally, across processes via
// the on-disk artifact store):
//
//  * "dtable" — Lipschitz-certificate tables.  DeadlineTableKey
//    fingerprints EVERY input that determines the built table: the table
//    grid/domain config, the *effective* Lipschitz interval config —
//    including the environment_speed raise run_episode applies for moving
//    obstacles — the barrier calibration, the road geometry, and the ego
//    body radius.  The `threads` build knob is deliberately excluded: it
//    is an execution parameter, not a table property (the build is
//    bit-identical for any thread count).  A missed dependent parameter is
//    the classic silent cache-corruption bug, so key sensitivity is locked
//    by tests and the digest is pinned by a golden-value test.
//  * "rphi" — rollout-φ tables.  RolloutSafeInterval sources integrate the
//    KBM (one march per speed column, ~10× costlier than the closed-form
//    certificate), which
//    makes caching even more valuable.  RolloutTableKey fingerprints the
//    effective RolloutIntervalConfig, the vehicle model the rollout
//    integrates, the barrier, the road and the grid/domain config.
//
// DeadlineTableCache is the PR 4 API, kept as a thin adapter over the
// generic store so existing call sites and tests are undisturbed while the
// mechanics (single-flight, disk tier + GC) live in core/artifact_store.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/artifact_store.hpp"
#include "dynamics/bicycle.hpp"
#include "dynamics/road.hpp"
#include "safety/barrier.hpp"
#include "safety/deadline_table.hpp"
#include "safety/safe_interval.hpp"

namespace seo {

/// Everything that determines the content of a Lipschitz-built
/// DeadlineTable.  `table.threads` is excluded from equality and digest.
struct DeadlineTableKey {
  DeadlineTableConfig table{};          ///< grid + domain (max_distance already
                                        ///< resolved to the sensing range)
  LipschitzIntervalConfig interval{};   ///< effective config, including any
                                        ///< runtime environment_speed raise
  BarrierConfig barrier{};
  RoadParams road{};
  double body_radius = 0.0;

  /// Canonical 64-bit content digest (stable across processes and runs —
  /// pinned by the golden-digest test).
  std::uint64_t digest() const;
  /// digest() as fixed-width hex — the on-disk artifact address.
  std::string hex() const;

  bool operator==(const DeadlineTableKey& other) const;
};

/// Everything that determines the content of a rollout-φ DeadlineTable:
/// the rollout integrates the vehicle model under a held control until the
/// barrier crosses zero, so the model and barrier calibration are content
/// inputs alongside the rollout horizon/step/bisection and the grid.
/// `table.threads` is excluded, as is `rollout` execution state.
struct RolloutTableKey {
  DeadlineTableConfig table{};
  RolloutIntervalConfig rollout{};  ///< effective config (sensing_range
                                    ///< resolved from the scenario)
  BicycleParams model{};
  BarrierConfig barrier{};
  RoadParams road{};
  double body_radius = 0.0;

  std::uint64_t digest() const;
  std::string hex() const;

  bool operator==(const RolloutTableKey& other) const;
};

namespace table_artifact_detail {
/// Shared encode/decode/validate for both DeadlineTable kinds: the binary
/// DeadlineTable payload (raw IEEE-754 bits, bit-exact round trip) plus
/// the shape check against the key that the payload alone cannot prove.
void validate_table_shape(const DeadlineTableConfig& expected,
                          double expected_body_radius,
                          const DeadlineTable& table);
}  // namespace table_artifact_detail

/// Artifact kind "dtable": Lipschitz-certificate deadline tables.
struct LipschitzTableTraits {
  using Key = DeadlineTableKey;
  using Value = DeadlineTable;
  static const char* kind() { return "dtable"; }
  /// Container format version: v3 is the binary `seo-artifact` container
  /// with the binary table payload (v2's text files — like PR 4's bespoke
  /// v1 files before them — are simply never addressed again and get
  /// reclaimed by the GC sweep).
  static int version() { return 3; }
  static void encode(const DeadlineTable& table, BinaryWriter& out) {
    table.encode(out);
  }
  static DeadlineTable decode(BinaryReader& in) {
    return DeadlineTable::decode(in);
  }
  static void validate(const Key& key, const DeadlineTable& table) {
    table_artifact_detail::validate_table_shape(key.table, key.body_radius,
                                                table);
  }
};

/// Artifact kind "rphi": rollout-φ deadline tables.
struct RolloutTableTraits {
  using Key = RolloutTableKey;
  using Value = DeadlineTable;
  static const char* kind() { return "rphi"; }
  /// v2 = binary container + binary table payload.
  static int version() { return 2; }
  static void encode(const DeadlineTable& table, BinaryWriter& out) {
    table.encode(out);
  }
  static DeadlineTable decode(BinaryReader& in) {
    return DeadlineTable::decode(in);
  }
  static void validate(const Key& key, const DeadlineTable& table) {
    table_artifact_detail::validate_table_shape(key.table, key.body_radius,
                                                table);
  }
};

using RolloutTableStore = ArtifactStore<RolloutTableTraits>;

/// Stats alias for the adapter's callers: the generic store's counters.
using DeadlineTableCacheStats = ArtifactStoreStats;

/// Thin adapter over ArtifactStore<LipschitzTableTraits> preserving the
/// PR 4 cache API.  One process-wide instance (global()) backs
/// run_episode; independent instances are cheap and used by tests and
/// benchmarks (they deliberately do NOT register with the store registry —
/// only global stores report in the unified CLI stats).
class DeadlineTableCache {
 public:
  using Store = ArtifactStore<LipschitzTableTraits>;
  using TablePtr = Store::ValuePtr;
  using Builder = Store::Builder;

  DeadlineTableCache() : owned_(std::make_unique<Store>()), store_(*owned_) {}
  DeadlineTableCache(const DeadlineTableCache&) = delete;
  DeadlineTableCache& operator=(const DeadlineTableCache&) = delete;

  /// Returns the table for `key`, building it with `build` at most once per
  /// key across all concurrent callers (see ArtifactStore::get).
  TablePtr get(const DeadlineTableKey& key, const std::string& disk_dir,
               const Builder& build) {
    return store_.get(key, ArtifactDiskOptions{disk_dir, 0, 0.0}, build);
  }
  TablePtr get(const DeadlineTableKey& key, const ArtifactDiskOptions& disk,
               const Builder& build) {
    return store_.get(key, disk, build);
  }

  DeadlineTableCacheStats stats() const { return store_.stats(); }
  std::size_t size() const { return store_.size(); }
  /// Drops every entry and zeroes the stats (tests, benchmarks).
  void clear() { store_.clear(); }

  /// The process-wide cache run_episode consults (wraps the registered
  /// global "dtable" store).
  static DeadlineTableCache& global();

  /// Nested-parallelism guard: a cache-miss build triggered from inside a
  /// ThreadPool worker (sweep/fleet episode fan-out) must not fan out
  /// again — the pool would run the nested range inline anyway, and a
  /// second pool would oversubscribe the machine.  Returns 1 on a pool
  /// worker, `requested` otherwise.
  static int effective_build_threads(int requested);

  /// Versioned artifact file name for `key` ("dtable-v3-<hex>.bin").
  static std::string artifact_name(const DeadlineTableKey& key) {
    return Store::artifact_name(key);
  }

 private:
  explicit DeadlineTableCache(Store& store) : store_(store) {}

  std::unique_ptr<Store> owned_;  ///< null for the global() wrapper
  Store& store_;
};

}  // namespace seo
