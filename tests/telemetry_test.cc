// Tests for the fleet telemetry pipeline (src/telemetry/): burn-window
// math and alert rising edges, flight-recorder triggers / ring coverage /
// cooldown / dump cap, the hierarchical per-shard -> fleet series merge,
// the hyperalloc-flight-v1 document shape, and stream digest
// determinism. The pipeline is driven directly (no fleet engine) with
// synthetic gauge sets; the engine-integration side — byte-identical
// digests across worker-thread counts at fleet scale — lives in
// tests/fleet_test.cc.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/telemetry/telemetry.h"

namespace hyperalloc::telemetry {
namespace {

#if HYPERALLOC_TRACE

constexpr sim::Time kEpoch = 5 * sim::kSec;

// A quiet fleet: every VM idle at the same limit/WSS.
std::vector<VmGauges> QuietGauges(uint64_t vms, uint64_t limit_bytes,
                                  uint64_t wss_bytes) {
  std::vector<VmGauges> gauges(vms);
  for (uint64_t i = 0; i < vms; ++i) {
    gauges[i].vm = i;
    gauges[i].limit_bytes = limit_bytes;
    gauges[i].wss_bytes = wss_bytes;
    gauges[i].rss_bytes = wss_bytes;
  }
  return gauges;
}

TelemetryOptions QuietOptions() {
  TelemetryOptions options;
  // No span/trace emission: these tests drive the pipeline without the
  // global tracers and must not depend on their state.
  options.emit_spans = false;
  return options;
}

TEST(Burn, LatencyAlertFiresOnRisingEdgeOnly) {
  TelemetryOptions options = QuietOptions();
  options.burn_fast_epochs = 2;
  options.burn_slow_epochs = 4;
  // Defaults otherwise: budget 0.01, thresholds 8x fast / 2x slow,
  // latency target 400 ms.
  options.shards = 2;
  Pipeline pipeline(options, /*vms=*/4, kEpoch);
  const std::vector<VmGauges> gauges = QuietGauges(4, 64 << 20, 32 << 20);

  sim::Time at = 0;
  auto epoch = [&](std::vector<double> completed_ms) {
    at += kEpoch;
    pipeline.OnEpoch(at, gauges, /*committed=*/128 << 20, /*pressure=*/0.5,
                     /*granted=*/0, /*clipped=*/0, /*rejected=*/0,
                     completed_ms);
  };

  // Three epochs of blown latency: error fraction 1.0 -> fast burn 100x
  // and slow burn 100x from the first epoch. One alert (the edge), not
  // one per epoch.
  epoch({500.0, 650.0});
  epoch({500.0});
  epoch({900.0});
  // Recovery: on-time completions push the fast window back under its
  // threshold, resetting the edge detector.
  for (int i = 0; i < 6; ++i) {
    epoch({10.0, 20.0});
  }
  // Relapse at epoch 9: a second rising edge, a second alert. One late
  // epoch is enough — fast window mean 0.5 -> 50x burn, slow window mean
  // 0.25 -> 25x.
  epoch({1200.0});
  epoch({1200.0});

  const TelemetryResult result = pipeline.Finish();
  ASSERT_EQ(result.alert_events.size(), 2u);
  EXPECT_EQ(result.alert_events[0].kind, AlertKind::kLatencyBurn);
  EXPECT_EQ(result.alert_events[0].epoch, 0u);
  EXPECT_GE(result.alert_events[0].burn_fast, 8.0);
  EXPECT_GE(result.alert_events[0].burn_slow, 2.0);
  EXPECT_EQ(result.alert_events[1].kind, AlertKind::kLatencyBurn);
  EXPECT_EQ(result.alert_events[1].epoch, 9u);
  EXPECT_EQ(result.alerts, 2u);
  // Epochs with no completions contribute zero error, not NaN.
  EXPECT_EQ(result.fleet.back().latency_burn_fast,
            result.fleet.back().latency_burn_fast);  // not NaN
}

TEST(Burn, PressureAlertUsesPressureCeiling) {
  TelemetryOptions options = QuietOptions();
  options.burn_fast_epochs = 1;
  options.burn_slow_epochs = 2;
  options.slo_pressure = 0.9;
  options.shards = 1;
  Pipeline pipeline(options, 2, kEpoch);
  const std::vector<VmGauges> gauges = QuietGauges(2, 64 << 20, 32 << 20);
  // Over the ceiling from the first epoch: binary error 1.0.
  pipeline.OnEpoch(kEpoch, gauges, 1 << 30, /*pressure=*/0.95, 0, 0, 0, {});
  pipeline.OnEpoch(2 * kEpoch, gauges, 1 << 30, 0.95, 0, 0, 0, {});
  const TelemetryResult result = pipeline.Finish();
  ASSERT_GE(result.alert_events.size(), 1u);
  EXPECT_EQ(result.alert_events[0].kind, AlertKind::kPressureBurn);
  EXPECT_GT(result.fleet.back().pressure_burn_fast, 8.0);
}

TEST(Flight, QuarantineFreezesRingWithHistory) {
  TelemetryOptions options = QuietOptions();
  options.flight_depth = 8;
  options.shards = 2;
  Pipeline pipeline(options, 4, kEpoch);
  std::vector<VmGauges> gauges = QuietGauges(4, 64 << 20, 32 << 20);

  // Ten quiet epochs fill the ring past its depth...
  for (int k = 0; k < 10; ++k) {
    pipeline.OnEpoch((k + 1) * kEpoch, gauges, 128 << 20, 0.5, 0, 0, 0, {});
  }
  // ...then VM 3 enters quarantine at epoch 10.
  gauges[3].quarantined = true;
  gauges[3].quarantined_frames = 16;
  pipeline.OnEpoch(11 * kEpoch, gauges, 128 << 20, 0.5, 0, 0, 0, {});

  const TelemetryResult result = pipeline.Finish();
  ASSERT_EQ(result.dumps.size(), 1u);
  const FlightDump& dump = result.dumps[0];
  EXPECT_EQ(dump.trigger, FlightTrigger::kQuarantine);
  EXPECT_EQ(dump.vm, 3u);
  EXPECT_EQ(dump.epoch, 10u);
  // The ring covers the trigger epoch plus >= 7 epochs of history (the
  // postmortem acceptance bound is >= 8 epochs before the trigger
  // counting it).
  EXPECT_EQ(dump.ring_epochs, 8u);
  // hyperalloc-flight-v1 document shape (full schema validation is
  // scripts/check_bench_json.py's job; these are the load-bearing
  // landmarks).
  EXPECT_NE(dump.json.find("\"schema\": \"hyperalloc-flight-v1\""),
            std::string::npos);
  EXPECT_NE(dump.json.find("\"kind\": \"quarantine\""), std::string::npos);
  EXPECT_NE(dump.json.find("\"vm\": 3"), std::string::npos);
  EXPECT_NE(dump.json.find("\"vms_detail\""), std::string::npos);
  EXPECT_NE(dump.json.find("\"counter_deltas\""), std::string::npos);
  // Oldest ring frame is epoch 3 (10 - 8 + 1).
  EXPECT_NE(dump.json.find("{\"epoch\": 3,"), std::string::npos);
  EXPECT_EQ(dump.json.find("{\"epoch\": 2,"), std::string::npos);
  // The Perfetto bundle carries counter tracks for the same window.
  EXPECT_NE(dump.perfetto.find("\"ph\":\"C\""), std::string::npos);

  // A quarantine is an edge, not a level: the already-quarantined VM
  // must not re-trigger (result would hold a second dump otherwise).
  EXPECT_EQ(result.flight_dumps, 1u);
}

TEST(Flight, CooldownSpacesDumpsAndCapHolds) {
  TelemetryOptions options = QuietOptions();
  options.flight_depth = 4;
  options.flight_cooldown_epochs = 4;
  options.flight_max_dumps = 2;
  const uint64_t vms = 24;
  options.shards = 2;
  Pipeline pipeline(options, vms, kEpoch);
  std::vector<VmGauges> gauges = QuietGauges(vms, 64 << 20, 32 << 20);
  // A new VM quarantines every epoch: without the cooldown this would
  // dump every epoch, without the cap it would dump forever.
  for (uint64_t k = 0; k < vms; ++k) {
    gauges[k].quarantined = true;
    pipeline.OnEpoch((k + 1) * kEpoch, gauges, 128 << 20, 0.5, 0, 0, 0, {});
  }
  const TelemetryResult result = pipeline.Finish();
  ASSERT_EQ(result.dumps.size(), 2u);
  EXPECT_GE(result.dumps[1].epoch - result.dumps[0].epoch,
            uint64_t{options.flight_cooldown_epochs});
}

TEST(Flight, RejectSpikeTrigger) {
  TelemetryOptions options = QuietOptions();
  options.reject_spike_threshold = 5;
  options.shards = 1;
  Pipeline pipeline(options, 2, kEpoch);
  const std::vector<VmGauges> gauges = QuietGauges(2, 64 << 20, 32 << 20);
  // Cumulative rejections: +2 (quiet), +7 (spike).
  pipeline.OnEpoch(kEpoch, gauges, 1 << 30, 0.5, 10, 0, 2, {});
  pipeline.OnEpoch(2 * kEpoch, gauges, 1 << 30, 0.5, 10, 0, 9, {});
  const TelemetryResult result = pipeline.Finish();
  ASSERT_EQ(result.dumps.size(), 1u);
  EXPECT_EQ(result.dumps[0].trigger, FlightTrigger::kRejectSpike);
  EXPECT_EQ(result.fleet[1].rejected_delta, 7u);
  EXPECT_NE(result.dumps[0].json.find("\"kind\": \"reject_spike\""),
            std::string::npos);
}

TEST(Hierarchy, ShardMergeEqualsDirectVmAggregation) {
  TelemetryOptions options = QuietOptions();
  options.shards = 4;
  options.record_vm_series = true;
  const uint64_t vms = 10;  // deliberately not a multiple of shards
  Pipeline pipeline(options, vms, kEpoch);

  for (int k = 0; k < 6; ++k) {
    std::vector<VmGauges> gauges(vms);
    for (uint64_t i = 0; i < vms; ++i) {
      gauges[i].vm = i;
      gauges[i].limit_bytes = (i + 1) * (k + 2) * (4 << 20);
      gauges[i].wss_bytes = (i + 1) * (k + 1) * (3 << 20);
    }
    pipeline.OnEpoch((k + 1) * kEpoch, gauges, 1 << 30, 0.4, 0, 0, 0, {});
  }
  const TelemetryResult result = pipeline.Finish();

  ASSERT_EQ(result.shard_limit_gib.size(), 4u);
  ASSERT_EQ(result.vm_limit_gib.size(), vms);
  // Per-shard -> fleet merge must equal merging the raw per-VM series
  // directly: GiB values are exact doubles, so the grouping by ShardOf
  // is associative (see metrics::MergeSum).
  const metrics::TimeSeries direct_limit =
      metrics::MergeSum(result.vm_limit_gib, kEpoch);
  const metrics::TimeSeries direct_wss =
      metrics::MergeSum(result.vm_wss_gib, kEpoch);
  ASSERT_EQ(result.fleet_limit_gib.points().size(),
            direct_limit.points().size());
  for (size_t k = 0; k < direct_limit.points().size(); ++k) {
    EXPECT_EQ(result.fleet_limit_gib.points()[k].value,
              direct_limit.points()[k].value)
        << k;
    EXPECT_EQ(result.fleet_wss_gib.points()[k].value,
              direct_wss.points()[k].value)
        << k;
  }
  // The shard rollup itself covers every VM exactly once.
  uint64_t covered = 0;
  for (const ShardGauges& s : result.shard_last) {
    covered += s.vms;
  }
  EXPECT_EQ(covered, vms);
  // And the fleet flat row agrees with the shard sums.
  uint64_t shard_limit_sum = 0;
  for (const ShardGauges& s : result.shard_last) {
    shard_limit_sum += s.limit_bytes;
  }
  EXPECT_EQ(shard_limit_sum, result.fleet.back().limit_bytes);
}

TEST(Digest, IdenticalInputsIdenticalStream) {
  auto run = [](uint64_t wss_tweak) {
    TelemetryOptions options = QuietOptions();
    options.shards = 2;
    Pipeline pipeline(options, 3, kEpoch);
    for (int k = 0; k < 5; ++k) {
      std::vector<VmGauges> gauges = QuietGauges(3, 64 << 20, 32 << 20);
      gauges[1].wss_bytes += wss_tweak;
      pipeline.OnEpoch((k + 1) * kEpoch, gauges, 128 << 20, 0.5, 0, 0, 0,
                       {12.5});
    }
    return pipeline.Finish();
  };
  const TelemetryResult a = run(0);
  const TelemetryResult b = run(0);
  const TelemetryResult c = run(4096);
  EXPECT_EQ(a.telemetry_digest, b.telemetry_digest);
  EXPECT_NE(a.telemetry_digest, 0u);
  // Any sampled value entering the stream must move the digest.
  EXPECT_NE(a.telemetry_digest, c.telemetry_digest);
}

TEST(Pipeline, DisabledSamplesNothing) {
  TelemetryOptions options = QuietOptions();
  options.enabled = false;
  options.shards = 1;
  Pipeline pipeline(options, 2, kEpoch);
  EXPECT_FALSE(pipeline.enabled());
  pipeline.OnEpoch(kEpoch, QuietGauges(2, 1 << 20, 1 << 20), 1 << 30, 0.99,
                   0, 0, 100, {});
  const TelemetryResult result = pipeline.Finish();
  EXPECT_FALSE(result.enabled);
  EXPECT_EQ(result.epochs, 0u);
  EXPECT_EQ(result.telemetry_digest, 0u);
  EXPECT_TRUE(result.fleet.empty());
  EXPECT_TRUE(result.dumps.empty());
}

#else  // !HYPERALLOC_TRACE

TEST(Pipeline, NotraceStubIsInert) {
  Pipeline pipeline(TelemetryOptions{}, 4, 5 * sim::kSec);
  EXPECT_FALSE(pipeline.enabled());
  pipeline.OnEpoch(sim::kSec, {}, 0, 0.0, 0, 0, 0, {});
  const TelemetryResult result = pipeline.Finish();
  EXPECT_FALSE(result.enabled);
  EXPECT_EQ(result.epochs, 0u);
}

#endif  // HYPERALLOC_TRACE

}  // namespace
}  // namespace hyperalloc::telemetry
