// Multi-host sweep tests: the shard planner's partition algebra and shard
// execution / trace merge byte-identity against the unsharded run.  The
// end-to-end `sweep` CLI checks (report and trace bytes across --threads,
// the --stats line, rejected flags and cache settings) drive the real
// binaries when CMake baked their paths in (SEO_SWEEP_TOOL, SEO_FLEET_TOOL).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "sim/sweep.hpp"
#include "sim/sweep_report.hpp"
#include "sim/trace.hpp"
#include "util/expect.hpp"
#include "util/thread_pool.hpp"

namespace seo {
namespace {

// A 4-point grid over small tables — big enough to shard meaningfully,
// small enough that the multi-run identity tests stay fast.
SweepConfig tiny_sweep() {
  SweepConfig config;
  config.scenarios = {"paper_default"};
  config.axes = {{"channel_mbps", {"8", "12", "16", "20"}}};
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

// The tiny_sweep() config expressed as sweep CLI flags.
std::vector<std::string> tiny_sweep_args() {
  return {"--scenarios", "paper_default",
          "--axis",      "channel_mbps=8,12,16,20",
          "--set",       "road_length=45",
          "--set",       "max_episode_s=12",
          "--set",       "table_distance_bins=15",
          "--set",       "table_bearing_bins=9",
          "--set",       "table_speed_bins=9",
          "--episodes",  "2",
          "--max-attempts", "8",
          "--allow-failures"};
}

// --- Shard planner ----------------------------------------------------------

TEST(SweepPlan, ShardPointsPartitionTheGrid) {
  const SweepPlan plan = plan_sweep(smoke_sweep());
  const std::size_t n = plan.points.size();
  ASSERT_GE(n, 12u);
  for (const std::size_t shards : {1u, 2u, 3u, 5u, 16u, 32u}) {
    std::vector<std::size_t> all;
    for (std::size_t shard = 0; shard < shards; ++shard) {
      const auto owned = plan.shard_points(shard, shards);
      EXPECT_TRUE(std::is_sorted(owned.begin(), owned.end()))
          << "shard " << shard << "/" << shards << " not ascending";
      all.insert(all.end(), owned.begin(), owned.end());
    }
    // Every grid index in exactly one shard — no holes, no overlap.
    std::sort(all.begin(), all.end());
    ASSERT_EQ(all.size(), n) << "shards=" << shards;
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(all[i], i) << "shards=" << shards;
  }
}

TEST(SweepPlan, ShardsAreContiguousSlicesOfTheSchedule) {
  // A shard owns a contiguous run of the digest-grouped schedule, so whole
  // geometry classes stay together and each worker's table cache is warm.
  const SweepPlan plan = plan_sweep(smoke_sweep());
  const std::size_t n = plan.order.size();
  const std::size_t shards = 3;
  const std::size_t grain = (n + shards - 1) / shards;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    const std::size_t lo = std::min(n, shard * grain);
    const std::size_t hi = std::min(n, lo + grain);
    std::vector<std::size_t> expected;
    for (std::size_t at = lo; at < hi; ++at)
      expected.push_back(plan.order[at].second);
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(plan.shard_points(shard, shards), expected);
  }
}

TEST(SweepPlan, PlanIsAPureFunctionOfTheConfig) {
  const SweepPlan a = plan_sweep(tiny_sweep());
  const SweepPlan b = plan_sweep(tiny_sweep());
  EXPECT_NE(a.run_digest, 0u);
  EXPECT_EQ(a.run_digest, b.run_digest);
  EXPECT_EQ(a.order, b.order);
  // A different grid is a different run identity.
  SweepConfig other = tiny_sweep();
  other.axes[0].values = {"8", "12", "16"};
  EXPECT_NE(plan_sweep(other).run_digest, a.run_digest);
}

// --- Shard execution and trace merge ----------------------------------------

TEST(SweepShard, ShardRowsReassembleTheUnshardedReport) {
  const SweepConfig config = tiny_sweep();
  const std::vector<SweepRow> whole = run_sweep(config);

  std::vector<SweepRow> merged;
  for (std::size_t shard = 0; shard < 2; ++shard)
    for (SweepRow& row : run_sweep_shard(config, shard, 2))
      merged.push_back(std::move(row));
  std::sort(merged.begin(), merged.end(),
            [](const SweepRow& a, const SweepRow& b) {
              return a.point.index < b.point.index;
            });

  ASSERT_EQ(merged.size(), whole.size());
  EXPECT_EQ(sweep_csv(config, merged), sweep_csv(config, whole));
  EXPECT_EQ(sweep_json(config, merged), sweep_json(config, whole));
}

// Runs `config` (optionally one shard of it) with a trace sink attached
// and returns the stream bytes.
std::string traced_run(SweepConfig config, std::size_t shard,
                       std::size_t shards) {
  std::ostringstream out;
  OrderedTraceSink sink(out);
  config.trace_sink = &sink;
  (void)run_sweep_shard(config, shard, shards);
  sink.finish();
  return out.str();
}

TEST(SweepShard, MergedShardTracesAreByteIdenticalToUnsharded) {
  const SweepConfig config = tiny_sweep();
  const std::string whole = traced_run(config, 0, 1);
  const std::string shard0 = traced_run(config, 0, 2);
  const std::string shard1 = traced_run(config, 1, 2);
  ASSERT_FALSE(whole.empty());

  // Each shard stream is a valid seo-trace sorted by grid point, carrying
  // the *run's* digest (not a shard-local one) — the merge key.
  std::istringstream scan0(shard0);
  TraceEpisodeScanner scanner(scan0);
  std::uint32_t point = 0;
  std::string bytes;
  std::vector<std::uint32_t> points;  // one entry per episode
  while (scanner.next(point, bytes)) points.push_back(point);
  const SweepPlan plan = plan_sweep(config);
  EXPECT_EQ(scanner.run_digest(), plan.run_digest);
  EXPECT_TRUE(std::is_sorted(points.begin(), points.end()));
  points.erase(std::unique(points.begin(), points.end()), points.end());
  const auto owned = plan.shard_points(0, 2);
  EXPECT_EQ(points, std::vector<std::uint32_t>(owned.begin(), owned.end()));

  // Order must not matter to the merge result.
  for (const bool swap : {false, true}) {
    std::istringstream a(swap ? shard1 : shard0);
    std::istringstream b(swap ? shard0 : shard1);
    std::ostringstream merged;
    merge_trace_streams({&a, &b}, merged);
    EXPECT_EQ(merged.str(), whole) << "swap=" << swap;
  }
}

TEST(SweepShard, MergeRejectsOverlappingShards) {
  const std::string shard0 = traced_run(tiny_sweep(), 0, 2);
  std::istringstream a(shard0);
  std::istringstream b(shard0);
  std::ostringstream merged;
  EXPECT_THROW(merge_trace_streams({&a, &b}, merged), ContractViolation);
}

TEST(SweepShard, MergeRejectsShardsOfDifferentRuns) {
  SweepConfig other = tiny_sweep();
  other.axes[0].values = {"8", "12"};
  const std::string ours = traced_run(tiny_sweep(), 0, 2);
  const std::string theirs = traced_run(other, 1, 2);
  std::istringstream a(ours);
  std::istringstream b(theirs);
  std::ostringstream merged;
  EXPECT_THROW(merge_trace_streams({&a, &b}, merged), ContractViolation);
}

#ifdef SEO_SWEEP_TOOL

// --- The sweep CLI ----------------------------------------------------------

// Report and trace bytes out of `sweep` must be identical at every
// --threads value.
TEST(SweepCli, ByteIdentityAcrossThreadCounts) {
  const std::string dir = ::testing::TempDir();
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "missing " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };

  std::string base_args = std::string(SEO_SWEEP_TOOL);
  for (const std::string& arg : tiny_sweep_args()) base_args += " " + arg;

  std::string reference_csv;
  std::string reference_trace;
  for (const int threads : {1, 2, 0}) {
    const std::string tag = "t" + std::to_string(threads);
    const std::string csv = dir + "/sweep_" + tag + ".csv";
    const std::string trace = dir + "/sweep_" + tag + ".trace";
    const std::string cmd = base_args + " --threads " +
                            std::to_string(threads) + " --output " + csv +
                            " --trace-out " + trace + " 2>/dev/null";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
    if (reference_csv.empty()) {
      reference_csv = slurp(csv);
      reference_trace = slurp(trace);
      ASSERT_FALSE(reference_csv.empty());
      ASSERT_FALSE(reference_trace.empty());
    } else {
      EXPECT_EQ(slurp(csv), reference_csv) << tag;
      EXPECT_EQ(slurp(trace), reference_trace) << tag;
    }
  }
}

// --stats describes the run's own thread cap: a serial run neither uses
// nor creates the pool, and a capped run counts its busy share against the
// cap, not the host's core count.
TEST(SweepCli, StatsLineReportsTheEffectiveThreadCap) {
  const std::string dir = ::testing::TempDir();
  std::string base_args = std::string(SEO_SWEEP_TOOL);
  for (const std::string& arg : tiny_sweep_args()) base_args += " " + arg;
  const auto pool_line = [&](int threads) {
    const std::string log =
        dir + "/stats_t" + std::to_string(threads) + ".log";
    const std::string cmd = base_args + " --threads " +
                            std::to_string(threads) +
                            " --stats --output /dev/null 2>" + log;
    EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
    std::ifstream in(log);
    std::string line;
    while (std::getline(in, line))
      if (line.rfind("thread pool: ", 0) == 0) return line;
    ADD_FAILURE() << "no thread pool line in " << log;
    return std::string();
  };
  EXPECT_EQ(pool_line(1).rfind("thread pool: 1 workers, 0 tasks, ", 0), 0u);
  // Four points at cap 2: two tasks claim them (inline on a 1-CPU host,
  // whose one-worker pool runs everything on the caller).
  const std::string tasks = ThreadPool::hardware_threads() > 1 ? "2" : "0";
  EXPECT_EQ(pool_line(2).rfind("thread pool: 2 workers, " + tasks + " tasks, ",
                               0),
            0u);
}

// `sweep` has no worker-process mode: these flags are unknown arguments,
// rejected with exit 2 rather than silently ignored.
TEST(SweepCli, RemovedWorkerFlagsAreRejected) {
  const std::string dir = ::testing::TempDir();
  const std::string log = dir + "/removed_flag.log";
  for (const std::string flags :
       {"--workers 2", "--shard-pipe", "--shard-trace"}) {
    const std::string cmd = std::string(SEO_SWEEP_TOOL) + " --smoke " +
                            flags + " --output /dev/null 2>" + log;
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << cmd;
    EXPECT_EQ(WEXITSTATUS(status), 2) << cmd;
    std::ifstream in(log);
    std::stringstream err;
    err << in.rdbuf();
    const std::string flag = flags.substr(0, flags.find(' '));
    EXPECT_NE(err.str().find("unknown argument: " + flag), std::string::npos)
        << cmd << "\n" << err.str();
  }
}

// The in-memory cache budget is gone: `--cache mem-mb=` is an unknown
// setting and `cache_mem_mb` an unknown key, in both grid CLIs.
TEST(SweepCli, RemovedCacheMemoryKnobsAreRejected) {
  const std::string log = ::testing::TempDir() + "/removed_knob.log";
  const auto run = [&](const std::string& tool, const std::string& flags) {
    const std::string cmd =
        tool + " --smoke " + flags + " --output /dev/null 2>" + log;
    const int status = std::system(cmd.c_str());
    EXPECT_TRUE(WIFEXITED(status)) << cmd;
    EXPECT_EQ(WEXITSTATUS(status), 2) << cmd;
    std::ifstream in(log);
    std::stringstream err;
    err << in.rdbuf();
    return err.str();
  };
  for (const std::string tool : {SEO_SWEEP_TOOL, SEO_FLEET_TOOL}) {
    const std::string cache = run(tool, "--cache mem-mb=1");
    EXPECT_NE(cache.find("--cache: unknown setting 'mem-mb'"),
              std::string::npos)
        << tool << "\n" << cache;
    const std::string key = run(tool, "--set cache_mem_mb=1");
    EXPECT_NE(key.find("unknown sweep override key: cache_mem_mb"),
              std::string::npos)
        << tool << "\n" << key;
  }
}

#endif  // SEO_SWEEP_TOOL

}  // namespace
}  // namespace seo
