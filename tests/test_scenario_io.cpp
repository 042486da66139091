// scenario_io round-trip tests: the generated template, the key registry
// and apply_overrides must agree exactly, and every sweep-axis key must
// parse both from a config file and from CLI-style `--set key=value` pairs.
#include <gtest/gtest.h>

#include <algorithm>

#include "sim/scenario_io.hpp"
#include "sim/scenario_library.hpp"
#include "util/expect.hpp"

namespace seo {
namespace {

TEST(ScenarioIo, TemplateRoundTripsWithNoUnknownKeys) {
  const std::string text = scenario_config_template();
  const KeyValueConfig config = KeyValueConfig::parse_string(text);
  EXPECT_GT(config.size(), 40u);  // the registry covers the config surface

  ScenarioConfig scenario = default_scenario();
  const auto unknown = apply_overrides(config, scenario);
  EXPECT_TRUE(unknown.empty())
      << "template key not recognized: " << (unknown.empty() ? "" : unknown[0]);
}

TEST(ScenarioIo, TemplateListsEveryRegisteredKey) {
  const KeyValueConfig config =
      KeyValueConfig::parse_string(scenario_config_template());
  for (const auto& key : scenario_keys())
    EXPECT_TRUE(config.contains(key)) << "template missing key: " << key;
  EXPECT_EQ(config.size(), scenario_keys().size());
}

TEST(ScenarioIo, TemplateValuesAreTheDefaults) {
  // Applying the untouched template must be an identity on the default rig
  // (spot-checked over representative fields of several components).
  const KeyValueConfig config =
      KeyValueConfig::parse_string(scenario_config_template());
  const ScenarioConfig defaults = default_scenario();
  ScenarioConfig applied = default_scenario();
  apply_overrides(config, applied);
  EXPECT_EQ(applied.tau_s, defaults.tau_s);
  EXPECT_EQ(applied.deadline_cap, defaults.deadline_cap);
  EXPECT_EQ(applied.obstacle_count, defaults.obstacle_count);
  // Non-terminating decimal: the template must round-trip it exactly.
  EXPECT_EQ(applied.obstacle_region, defaults.obstacle_region);
  EXPECT_EQ(applied.min_obstacle_gap, defaults.min_obstacle_gap);
  EXPECT_EQ(applied.policy.target_speed, defaults.policy.target_speed);
  EXPECT_EQ(applied.vehicle.max_brake, defaults.vehicle.max_brake);
  EXPECT_EQ(applied.barrier.margin, defaults.barrier.margin);
  EXPECT_EQ(applied.filter.steering_candidates,
            defaults.filter.steering_candidates);
  EXPECT_EQ(applied.table.distance_bins, defaults.table.distance_bins);
  EXPECT_EQ(applied.detector.max_range, defaults.detector.max_range);
  EXPECT_EQ(applied.link.server_latency_s, defaults.link.server_latency_s);
  EXPECT_EQ(applied.edge_server.queue_capacity,
            defaults.edge_server.queue_capacity);
  EXPECT_EQ(applied.platform.idle_w, defaults.platform.idle_w);
  EXPECT_EQ(applied.scaled_dropout, defaults.scaled_dropout);
  EXPECT_EQ(applied.seed, defaults.seed);
  EXPECT_EQ(applied.pipelines.size(), defaults.pipelines.size());
}

TEST(ScenarioIo, EmptyConfigIsAStrictNoOp) {
  // Absent keys must not even round-trip values: unit-converting entries
  // (ms <-> s) would otherwise perturb the last bit of awkward doubles.
  ScenarioConfig scenario = default_scenario();
  scenario.link.server_latency_s = 0.0062149376084073525;
  scenario.link.downlink_latency_s = 0.0017777777777777779;
  scenario.edge_server.service_time_s = 0.0031415926535897933;
  scenario.platform.tx_w = 2.75;  // deliberately != link.tx_power_w
  scenario.seed = 0xDEADBEEFCAFEBABEull;  // > INT_MAX
  const ScenarioConfig before = scenario;

  const auto unknown = apply_overrides(KeyValueConfig{}, scenario);
  EXPECT_TRUE(unknown.empty());
  EXPECT_EQ(scenario.link.server_latency_s, before.link.server_latency_s);
  EXPECT_EQ(scenario.link.downlink_latency_s,
            before.link.downlink_latency_s);
  EXPECT_EQ(scenario.edge_server.service_time_s,
            before.edge_server.service_time_s);
  EXPECT_EQ(scenario.platform.tx_w, before.platform.tx_w);
  EXPECT_EQ(scenario.seed, before.seed);
}

TEST(ScenarioIo, SeedParsesFullUint64Range) {
  KeyValueConfig config;
  config.set("seed", "18446744073709551615");  // UINT64_MAX
  ScenarioConfig scenario = default_scenario();
  apply_overrides(config, scenario);
  EXPECT_EQ(scenario.seed, 18446744073709551615ull);

  KeyValueConfig bad;
  bad.set("seed", "not_a_number");
  EXPECT_THROW(apply_overrides(bad, scenario), ContractViolation);

  KeyValueConfig negative;  // stoull would silently wrap -5 to 2^64-5
  negative.set("seed", "-5");
  EXPECT_THROW(apply_overrides(negative, scenario), ContractViolation);
}

TEST(ScenarioIo, UnrecognizedKeysAreReportedNotApplied) {
  KeyValueConfig config;
  config.set("obstacles", "5");
  config.set("definitely_not_a_key", "1");
  config.set("another_bad_key", "x");
  ScenarioConfig scenario = default_scenario();
  const auto unknown = apply_overrides(config, scenario);
  EXPECT_EQ(scenario.obstacle_count, 5);
  ASSERT_EQ(unknown.size(), 2u);
  EXPECT_NE(std::find(unknown.begin(), unknown.end(), "definitely_not_a_key"),
            unknown.end());
  EXPECT_NE(std::find(unknown.begin(), unknown.end(), "another_bad_key"),
            unknown.end());
}

TEST(ScenarioIo, SweepAxisKeysParseFromFileText) {
  const std::string text =
      "# sweep-style overrides\n"
      "scenario = dense_field\n"
      "road_length = 60\n"
      "min_obstacle_gap = 4.5\n"
      "vehicle_max_brake = 4.0\n"
      "probe_interval = 3\n"
      "server_service_ms = 12\n"
      "deep_sleep_w = 0.2\n"
      "scaled_model = resnet152\n";
  ScenarioConfig scenario = default_scenario();
  const auto unknown =
      apply_overrides(KeyValueConfig::parse_string(text), scenario);
  EXPECT_TRUE(unknown.empty());
  EXPECT_EQ(scenario.obstacle_count, 8);  // dense_field base applied first
  EXPECT_EQ(scenario.road.length, 60.0);  // then refined by later keys
  EXPECT_EQ(scenario.min_obstacle_gap, 4.5);
  EXPECT_EQ(scenario.vehicle.max_brake, 4.0);
  EXPECT_EQ(scenario.offload_probe_interval, 3);
  EXPECT_EQ(scenario.edge_server.service_time_s, 0.012);
  EXPECT_EQ(scenario.platform.deep_sleep_w, 0.2);
  EXPECT_EQ(scenario.scaled_model.name, resnet152_px2().name);
}

TEST(ScenarioIo, SweepAxisKeysParseFromCliStyleSets) {
  // The sweep CLI funnels --set/--axis values through KeyValueConfig::set;
  // the same keys must behave identically to the file path.
  KeyValueConfig config;
  config.set("scenario", "bursty_edge");
  config.set("server_workers", "3");
  config.set("server_queue", "16");
  config.set("channel_mbps", "12.5");
  config.set("mode", "offload");
  config.set("brake_assist", "false");
  ScenarioConfig scenario = default_scenario();
  const auto unknown = apply_overrides(config, scenario);
  EXPECT_TRUE(unknown.empty());
  EXPECT_TRUE(scenario.use_edge_server);  // bursty_edge base
  EXPECT_EQ(scenario.edge_server.parallelism, 3);
  EXPECT_EQ(scenario.edge_server.queue_capacity, 16u);
  EXPECT_EQ(scenario.channel_scale_mbps, 12.5);
  EXPECT_EQ(scenario.mode, OptimizerMode::kOffload);
  EXPECT_FALSE(scenario.filter.brake_assist);
}

TEST(ScenarioIo, ScenarioBaseAppliesBeforeRefinements) {
  // File order is irrelevant: `scenario` always applies first, so the
  // refinement wins even when it precedes the base in the text.
  const std::string text =
      "obstacles = 2\n"
      "scenario = dense_field\n";
  ScenarioConfig scenario = default_scenario();
  apply_overrides(KeyValueConfig::parse_string(text), scenario);
  EXPECT_EQ(scenario.obstacle_count, 2);
  EXPECT_EQ(scenario.obstacle_region, 0.6);  // the rest of dense_field stays
}

TEST(ScenarioIo, TauRebuildKeepsPipelinePeriodsSynchronized) {
  KeyValueConfig config;
  config.set("tau_ms", "25");
  ScenarioConfig scenario = default_scenario();
  apply_overrides(config, scenario);
  EXPECT_DOUBLE_EQ(scenario.tau_s, 0.025);
  ASSERT_EQ(scenario.pipelines.size(), 3u);
  EXPECT_DOUBLE_EQ(scenario.pipelines[0].sensor.period_s, 0.025);
  EXPECT_DOUBLE_EQ(scenario.pipelines[1].sensor.period_s, 0.05);
}

TEST(ScenarioIo, TauRetimingPreservesCustomRigs) {
  // tau_ms must retime, not replace: fleet_rig's radar and lidar survive
  // a tau sweep with their p = k*tau harmonics intact.
  KeyValueConfig config;
  config.set("scenario", "fleet_rig");
  config.set("tau_ms", "25");
  ScenarioConfig scenario = default_scenario();
  apply_overrides(config, scenario);
  EXPECT_DOUBLE_EQ(scenario.tau_s, 0.025);
  ASSERT_EQ(scenario.pipelines.size(), 5u);
  EXPECT_DOUBLE_EQ(scenario.pipelines[0].sensor.period_s, 0.025);  // p=tau
  EXPECT_DOUBLE_EQ(scenario.pipelines[1].sensor.period_s, 0.05);   // p=2tau
  EXPECT_DOUBLE_EQ(scenario.pipelines[2].sensor.period_s, 0.05);   // radar
  EXPECT_DOUBLE_EQ(scenario.pipelines[3].sensor.period_s, 0.1);    // lidar
  EXPECT_DOUBLE_EQ(scenario.pipelines[4].sensor.period_s, 0.025);  // vae
}

TEST(ScenarioIo, InvalidEnumValuesThrow) {
  {
    KeyValueConfig config;
    config.set("mode", "warp_drive");
    ScenarioConfig scenario = default_scenario();
    EXPECT_THROW(apply_overrides(config, scenario), ContractViolation);
  }
  {
    KeyValueConfig config;
    config.set("scaled_model", "gpt7");
    ScenarioConfig scenario = default_scenario();
    EXPECT_THROW(apply_overrides(config, scenario), ContractViolation);
  }
  {
    KeyValueConfig config;
    config.set("scenario", "no_such_rig");
    ScenarioConfig scenario = default_scenario();
    EXPECT_THROW(apply_overrides(config, scenario), ContractViolation);
  }
}

TEST(ScenarioIo, KeyRegistryIsDuplicateFree) {
  auto keys = scenario_keys();
  EXPECT_TRUE(is_scenario_key("channel_mbps"));
  EXPECT_FALSE(is_scenario_key("not_a_key"));
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}

// The artifact store has no in-memory budget, so its two keys are gone.
TEST(ScenarioIo, RemovedCacheMemoryKeysAreUnknown) {
  EXPECT_FALSE(is_scenario_key("cache_mem_mb"));
  EXPECT_FALSE(is_scenario_key("cache_mem_entries"));
}

}  // namespace
}  // namespace seo
