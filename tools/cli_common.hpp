// Small helpers shared by the CLI mains in this directory (sweep, fleet):
// string splitting plus the artifact-store CLI surface — flag parsing,
// startup GC, and the unified per-kind stats report — kept here so the two
// CLIs (and the CI assertions grepping these exact formats) can never
// drift apart.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/artifact_store.hpp"
#include "nn/weights_store.hpp"
#include "safety/table_cache.hpp"
#include "util/numeric.hpp"
#include "util/thread_pool.hpp"

namespace seo::cli {

/// Strict numeric flag parse shared by every CLI double flag: the whole
/// string must form one finite number (util/numeric, locale-independent).
/// "5x", "nan", "inf" and "" are all errors — a flag value with a typo
/// must fail loudly, never silently truncate to a prefix.
inline double parse_numeric_flag(const std::string& flag,
                                 const std::string& text,
                                 double min_value = 0.0) {
  double v = 0.0;
  if (!parse_finite_double(text, v) || v < min_value) {
    std::cerr << flag << " expects a finite number >= "
              << format_double(min_value) << ", got '" << text << "'\n";
    std::exit(2);
  }
  return v;
}

/// Splits on `sep`, keeping empty fields ("a,,b" -> {"a", "", "b"}).
inline std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string current;
  for (const char c : text) {
    if (c == sep) {
      parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  parts.push_back(current);
  return parts;
}

/// Usage lines for the shared artifact-store flags, spliced into each
/// CLI's --help text.
constexpr const char* kCacheUsage =
    "  --cache SPEC           artifact-store settings, comma-separated:\n"
    "                           on|off        content-addressed reuse "
    "(default on;\n"
    "                                         results byte-identical "
    "either way)\n"
    "                           dir=DIR       persist artifacts (all "
    "kinds) in DIR\n"
    "                           budget-mb=N   artifact-dir size cap [MB]; "
    "LRU GC\n"
    "                                         sweeps after stores\n"
    "                           max-age-h=N   artifact last-use age cap "
    "[hours]\n"
    "                           gc            LRU GC sweep over the dir "
    "before the run\n"
    "                         e.g. --cache dir=artifacts,budget-mb=512,gc\n";

/// Artifact-store options accumulated while parsing.
struct CacheCliOptions {
  std::string dir;
  double budget_mb = 0.0;
  double max_age_h = 0.0;
  bool gc = false;
};

/// Applies one `--cache` setting (`name`/`value` as in "dir=DIR", or a
/// bare token like "gc" with an empty value).  Returns false for an
/// unknown setting name; exits with code 2 on a malformed value.
inline bool apply_cache_setting(
    const std::string& name, const std::string& value,
    std::vector<std::pair<std::string, std::string>>& overrides,
    CacheCliOptions& state) {
  const auto bare = [&] {
    if (!value.empty()) {
      std::cerr << "--cache: '" << name << "' does not take a value\n";
      std::exit(2);
    }
  };
  const auto numeric = [&] {
    return parse_numeric_flag("--cache " + name, value);
  };
  if (name == "on" || name == "off") {
    bare();
    overrides.emplace_back("table_cache", name == "on" ? "true" : "false");
    return true;
  }
  if (name == "gc") {
    bare();
    state.gc = true;
    return true;
  }
  if (name == "dir") {
    if (value.empty()) {
      std::cerr << "--cache: 'dir' expects a directory\n";
      std::exit(2);
    }
    state.dir = value;
    overrides.emplace_back("table_cache_dir", value);
    return true;
  }
  if (name == "budget-mb") {
    state.budget_mb = numeric();
    overrides.emplace_back("cache_budget_mb", value);
    return true;
  }
  if (name == "max-age-h") {
    state.max_age_h = numeric();
    overrides.emplace_back("cache_max_age_h", value);
    return true;
  }
  return false;
}

/// Consumes the shared artifact-store flag `--cache SPEC` (and its value)
/// from argv.  Returns false when `argv[i]` is not that flag; exits with
/// code 2 on a malformed value.  Recognized settings land in `overrides`
/// (scenario_io keys, so they reach run_episode through the normal config
/// path) and in `state` (for the startup GC).
inline bool parse_cache_flag(
    int argc, char** argv, int& i,
    std::vector<std::pair<std::string, std::string>>& overrides,
    CacheCliOptions& state) {
  const std::string arg = argv[i];
  if (arg != "--cache") return false;
  if (i + 1 >= argc) {
    std::cerr << "missing value for " << arg << "\n";
    std::exit(2);
  }
  for (const std::string& item : split(argv[++i], ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    const std::string name =
        eq == std::string::npos ? item : item.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : item.substr(eq + 1);
    if (!apply_cache_setting(name, value, overrides, state)) {
      std::cerr << "--cache: unknown setting '" << name
                << "' (expected on, off, dir=, budget-mb=, "
                   "max-age-h=, gc)\n";
      std::exit(2);
    }
  }
  return true;
}

/// Startup GC requested via `--cache gc`: one LRU sweep over the artifact
/// dir with the configured caps, reported to stderr.
inline void run_requested_gc(const CacheCliOptions& state) {
  if (!state.gc) return;
  if (state.dir.empty()) {
    std::cerr << "--cache gc requires dir=\n";
    std::exit(2);
  }
  const ArtifactGcResult r = artifact_store_gc(
      state.dir,
      state.budget_mb > 0.0
          ? static_cast<std::uint64_t>(state.budget_mb * 1024.0 * 1024.0)
          : 0,
      state.max_age_h > 0.0 ? state.max_age_h * 3600.0 : 0.0);
  std::cerr << "artifact gc: scanned " << r.scanned << " files, removed "
            << r.removed << ", " << r.bytes_before << " -> " << r.bytes_after
            << " bytes\n";
}

/// One greppable stats line per artifact kind for the process-wide stores
/// (CI assertions sed these exact words).  Every kind reports — also the
/// ones this run never touched — so CI and operators always see the full
/// picture.
inline void print_artifact_store_stats(std::ostream& out) {
  // Touching the global accessors guarantees each kind is registered (in
  // this order on a fresh process) before the snapshot.
  (void)DeadlineTableCache::global();
  (void)RolloutTableStore::global();
  (void)nn::cem_weights_store();
  for (const auto& row : ArtifactStoreRegistry::global().snapshot()) {
    const ArtifactStoreStats& s = row.stats;
    out << "artifact store [" << row.kind << "]: " << s.hits << " hits, "
        << s.misses << " misses, " << s.builds << " builds, " << s.waits
        << " waits, " << s.lock_waits << " lock waits, " << s.disk_loads
        << " disk loads, " << s.disk_stores << " disk stores, "
        << s.disk_failures << " disk failures\n";
  }
}

/// One greppable utilization line for the global thread pool, matching the
/// artifact-store stats format (`--stats` in the sweep/fleet CLIs).
/// `workers` is the run's effective cap (resolve_threads of its --threads)
/// and `window_s` the wall time it took; busy % is task time over that
/// capacity.  Reading the counters never creates the pool, so a serial run
/// reports 0 tasks without spawning idle workers.
inline void print_thread_pool_stats(std::ostream& out, std::size_t workers,
                                    double window_s) {
  const ThreadPoolStats s = ThreadPool::global_stats();
  const double busy_pct = 100.0 * s.busy_fraction(window_s, workers);
  out << "thread pool: " << workers << " workers, " << s.submitted
      << " tasks, " << s.steals << " steals, " << s.inline_runs
      << " inline, " << s.max_queue_depth << " max depth, "
      << static_cast<std::uint64_t>(busy_pct + 0.5) << "% busy\n";
}

}  // namespace seo::cli
