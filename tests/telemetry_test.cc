// Tests for the fleet telemetry pipeline (src/telemetry/): burn-window
// math and alert rising edges, flight-recorder triggers / ring coverage /
// cooldown / dump cap, the per-VM -> fleet epoch sums, the
// hyperalloc-flight-v2 document shape, the alert marker spans, and
// stream digest determinism. The pipeline is driven directly (no fleet engine) with
// synthetic gauge sets; the engine-integration side — byte-identical
// digests across worker-thread counts at fleet scale — lives in
// tests/fleet_test.cc.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/telemetry/telemetry.h"
#include "src/trace/span.h"

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

TEST(Burn, LatencyAlertFiresOnRisingEdgeOnly) {
  // Budget 0.01, windows 3 (fast) / 12 (slow) epochs, thresholds 8x
  // fast / 2x slow, latency target 400 ms.
  Pipeline pipeline(TelemetryOptions{}, /*vms=*/4);
  const std::vector<VmGauges> gauges = QuietGauges(4, 64 << 20, 32 << 20);

  pipeline.rows() = gauges;

  sim::Time at = 0;
  auto epoch = [&](std::vector<double> completed_ms) {
    at += kEpoch;
    pipeline.OnEpoch(at, /*committed=*/128 << 20, /*pressure=*/0.5,
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
  // epoch is enough — fast window mean 1/3 -> 33x burn, slow window mean
  // 4/10 -> 40x.
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
  auto run = [](double pressure) {
    Pipeline pipeline(TelemetryOptions{}, 2);
    pipeline.rows() = QuietGauges(2, 64 << 20, 32 << 20);
    pipeline.OnEpoch(kEpoch, 1 << 30, pressure, 0, 0, 0, {});
    pipeline.OnEpoch(2 * kEpoch, 1 << 30, pressure, 0, 0, 0, {});
    return pipeline.Finish();
  };
  // Over the ceiling from the first epoch: binary error 1.0.
  const TelemetryResult over = run(/*pressure=*/0.99);
  ASSERT_GE(over.alert_events.size(), 1u);
  EXPECT_EQ(over.alert_events[0].kind, AlertKind::kPressureBurn);
  EXPECT_GT(over.fleet.back().pressure_burn_fast, 8.0);
  // At the ceiling is within the SLO.
  const TelemetryResult at = run(kSloPressure);
  EXPECT_TRUE(at.alert_events.empty());
  EXPECT_EQ(at.fleet.back().pressure_burn_fast, 0.0);
}

TEST(Flight, QuarantineFreezesRingWithHistory) {
  Pipeline pipeline(TelemetryOptions{}, 4);
  std::vector<VmGauges>& gauges = pipeline.rows();
  gauges = QuietGauges(4, 64 << 20, 32 << 20);

  // Eighteen quiet epochs fill the 16-deep ring past its depth...
  for (int k = 0; k < 18; ++k) {
    pipeline.OnEpoch((k + 1) * kEpoch, 128 << 20, 0.5, 0, 0, 0, {});
  }
  // ...then VM 3 enters quarantine at epoch 18.
  gauges[3].quarantined = true;
  gauges[3].quarantined_frames = 16;
  pipeline.OnEpoch(19 * kEpoch, 128 << 20, 0.5, 0, 0, 0, {});

  const TelemetryResult result = pipeline.Finish();
  ASSERT_EQ(result.dumps.size(), 1u);
  const FlightDump& dump = result.dumps[0];
  EXPECT_EQ(dump.trigger, FlightTrigger::kQuarantine);
  EXPECT_EQ(dump.vm, 3u);
  EXPECT_EQ(dump.epoch, 18u);
  // The ring covers the trigger epoch plus 15 epochs of history (the
  // postmortem acceptance bound is >= 8 epochs before the trigger
  // counting it).
  EXPECT_EQ(dump.ring_epochs, kFlightDepth);
  // hyperalloc-flight-v2 document shape (full schema validation is
  // scripts/check_flight_json.py's job; these are the load-bearing
  // landmarks).
  EXPECT_NE(dump.json.find("\"schema\": \"hyperalloc-flight-v2\""),
            std::string::npos);
  EXPECT_EQ(dump.json.find("\"shards\""), std::string::npos);
  EXPECT_NE(dump.json.find("\"kind\": \"quarantine\""), std::string::npos);
  EXPECT_NE(dump.json.find("\"vm\": 3"), std::string::npos);
  EXPECT_NE(dump.json.find("\"vms_detail\""), std::string::npos);
  EXPECT_NE(dump.json.find("\"counter_deltas\""), std::string::npos);
  // Oldest ring frame is epoch 3 (18 - 16 + 1).
  EXPECT_NE(dump.json.find("{\"epoch\": 3,"), std::string::npos);
  EXPECT_EQ(dump.json.find("{\"epoch\": 2,"), std::string::npos);
  // The Perfetto bundle is the whole-run counter-track document over the
  // same window: epochs 3..18, no alerts.
  ASSERT_EQ(result.fleet.size(), 19u);
  const std::vector<EpochSummary> window(result.fleet.begin() + 3,
                                         result.fleet.end());
  EXPECT_EQ(dump.perfetto, FleetPerfettoJson(window, {}));
  EXPECT_NE(dump.perfetto.find("\"name\":\"rss_gib\",\"ph\":\"C\""),
            std::string::npos);

  // A quarantine is an edge, not a level: the already-quarantined VM
  // must not re-trigger (result would hold a second dump otherwise).
  EXPECT_EQ(result.flight_dumps, 1u);
}

TEST(Flight, CooldownSpacesDumpsAndCapHolds) {
  // Enough epochs for more dumps than the cap even at the cooldown's
  // spacing (epochs 0, 16, 32, 48, 64, 80).
  const uint64_t vms = (kFlightMaxDumps + 2) * kFlightCooldownEpochs;
  Pipeline pipeline(TelemetryOptions{}, vms);
  std::vector<VmGauges>& gauges = pipeline.rows();
  gauges = QuietGauges(vms, 64 << 20, 32 << 20);
  // A new VM quarantines every epoch: without the cooldown this would
  // dump every epoch, without the cap it would dump forever.
  for (uint64_t k = 0; k < vms; ++k) {
    gauges[k].quarantined = true;
    pipeline.OnEpoch((k + 1) * kEpoch, 128 << 20, 0.5, 0, 0, 0, {});
  }
  const TelemetryResult result = pipeline.Finish();
  ASSERT_EQ(result.dumps.size(), kFlightMaxDumps);
  for (size_t i = 1; i < result.dumps.size(); ++i) {
    EXPECT_GE(result.dumps[i].epoch - result.dumps[i - 1].epoch,
              kFlightCooldownEpochs);
  }
}

TEST(Flight, RejectSpikeTrigger) {
  Pipeline pipeline(TelemetryOptions{}, 2);
  const std::vector<VmGauges> gauges = QuietGauges(2, 64 << 20, 32 << 20);
  // Cumulative rejections: +2 (quiet), +15 (one under the threshold,
  // quiet), +16 (spike).
  pipeline.rows() = gauges;
  pipeline.OnEpoch(kEpoch, 1 << 30, 0.5, 10, 0, 2, {});
  pipeline.OnEpoch(2 * kEpoch, 1 << 30, 0.5, 10, 0, 17, {});
  pipeline.OnEpoch(3 * kEpoch, 1 << 30, 0.5, 10, 0, 33, {});
  const TelemetryResult result = pipeline.Finish();
  ASSERT_EQ(result.dumps.size(), 1u);
  EXPECT_EQ(result.dumps[0].trigger, FlightTrigger::kRejectSpike);
  EXPECT_EQ(result.dumps[0].epoch, 2u);
  EXPECT_EQ(result.fleet[2].rejected_delta, kRejectSpikeThreshold);
  EXPECT_NE(result.dumps[0].json.find("\"kind\": \"reject_spike\""),
            std::string::npos);
}

// The alert and flight-dump markers are zero-length kTelemetry spans on
// the global span tracer, emitted only while it is enabled.
class MarkerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = trace::SpanTracer::Global().enabled();
  }
  void TearDown() override {
    trace::SpanTracer::Global().SetEnabled(was_enabled_);
  }

  // Runs two on-time epochs and one late one (the latency alert edge is
  // epoch 2) with the tracer on or off; returns the alert marker spans.
  static std::vector<trace::SpanRecord> AlertMarkers(bool tracing) {
    trace::SpanTracer& spans = trace::SpanTracer::Global();
    spans.SetEnabled(false);
    spans.Drain();
    spans.SetEnabled(tracing);
    Pipeline pipeline(TelemetryOptions{}, /*vms=*/4);
    pipeline.rows() = QuietGauges(4, 64 << 20, 32 << 20);
    pipeline.OnEpoch(kEpoch, 128 << 20, 0.5, 0, 0, 0, {10.0});
    pipeline.OnEpoch(2 * kEpoch, 128 << 20, 0.5, 0, 0, 0, {10.0});
    pipeline.OnEpoch(3 * kEpoch, 128 << 20, 0.5, 0, 0, 0, {900.0});
    EXPECT_EQ(pipeline.Finish().alerts, 1u);
    spans.SetEnabled(false);
    std::vector<trace::SpanRecord> markers;
    for (const trace::SpanRecord& span : spans.Drain()) {
      if (std::string(span.name) == "telemetry.alert.latency_burn") {
        markers.push_back(span);
      }
    }
    return markers;
  }

  bool was_enabled_ = false;
};

TEST_F(MarkerTest, AlertEdgeEmitsOneSpanWhileTracing) {
  const std::vector<trace::SpanRecord> markers = AlertMarkers(true);
  ASSERT_EQ(markers.size(), 1u);
  EXPECT_EQ(markers[0].layer, trace::Layer::kTelemetry);
  EXPECT_EQ(markers[0].vm, 4u);      // the fleet size: no real VM
  EXPECT_EQ(markers[0].frames, 2u);  // the alert's epoch
  EXPECT_EQ(markers[0].begin_vns, 3 * kEpoch);
  EXPECT_EQ(markers[0].end_vns, 3 * kEpoch);
}

TEST_F(MarkerTest, NoSpanWhileTracerDisabled) {
  EXPECT_TRUE(AlertMarkers(false).empty());
}

TEST(Aggregation, EpochSummaryEqualsSumOverVmGauges) {
  const uint64_t vms = 10;
  Pipeline pipeline(TelemetryOptions{}, vms);

  std::vector<std::vector<VmGauges>> epochs;
  for (uint64_t k = 0; k < 6; ++k) {
    std::vector<VmGauges> gauges(vms);
    for (uint64_t i = 0; i < vms; ++i) {
      gauges[i].vm = i;
      gauges[i].limit_bytes = (i + 1) * (k + 2) * (4 << 20);
      gauges[i].wss_bytes = (i + 1) * (k + 1) * (3 << 20);
      gauges[i].rss_bytes = (i + 2) * (k + 1) * (5 << 20);
    }
    pipeline.rows() = gauges;
    pipeline.OnEpoch((k + 1) * kEpoch, 1 << 30, 0.4, 0, 0, 0, {});
    epochs.push_back(std::move(gauges));
  }
  const TelemetryResult result = pipeline.Finish();

  ASSERT_EQ(result.fleet.size(), epochs.size());
  for (size_t k = 0; k < epochs.size(); ++k) {
    uint64_t limit = 0;
    uint64_t wss = 0;
    uint64_t rss = 0;
    for (const VmGauges& g : epochs[k]) {
      limit += g.limit_bytes;
      wss += g.wss_bytes;
      rss += g.rss_bytes;
    }
    EXPECT_EQ(result.fleet[k].limit_bytes, limit) << k;
    EXPECT_EQ(result.fleet[k].wss_bytes, wss) << k;
    EXPECT_EQ(result.fleet[k].rss_bytes, rss) << k;
  }
  // The per-VM rows the fleet row sums are the ones the result keeps.
  ASSERT_EQ(result.vm_last.size(), vms);
  EXPECT_EQ(result.vm_last.back().limit_bytes,
            epochs.back().back().limit_bytes);
}

TEST(Digest, IdenticalInputsIdenticalStream) {
  auto run = [](uint64_t wss_tweak) {
    Pipeline pipeline(TelemetryOptions{}, 3);
    for (int k = 0; k < 5; ++k) {
      std::vector<VmGauges> gauges = QuietGauges(3, 64 << 20, 32 << 20);
      gauges[1].wss_bytes += wss_tweak;
      pipeline.rows() = gauges;
      pipeline.OnEpoch((k + 1) * kEpoch, 128 << 20, 0.5, 0, 0, 0,
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
  TelemetryOptions options;
  options.enabled = false;
  Pipeline pipeline(options, 2);
  EXPECT_FALSE(pipeline.enabled());
  EXPECT_TRUE(pipeline.rows().empty());
  pipeline.OnEpoch(kEpoch, 1 << 30, 0.99, 0, 0, 100, {});
  const TelemetryResult result = pipeline.Finish();
  EXPECT_FALSE(result.enabled);
  EXPECT_EQ(result.epochs, 0u);
  EXPECT_EQ(result.telemetry_digest, 0u);
  EXPECT_TRUE(result.fleet.empty());
  EXPECT_TRUE(result.dumps.empty());
}

#else  // !HYPERALLOC_TRACE

TEST(Pipeline, NotraceStubIsInert) {
  Pipeline pipeline(TelemetryOptions{}, 4);
  EXPECT_FALSE(pipeline.enabled());
  EXPECT_TRUE(pipeline.rows().empty());
  pipeline.OnEpoch(sim::kSec, 0, 0.0, 0, 0, 0, {});
  const TelemetryResult result = pipeline.Finish();
  EXPECT_FALSE(result.enabled);
  EXPECT_EQ(result.epochs, 0u);
}

#endif  // HYPERALLOC_TRACE

}  // namespace
}  // namespace hyperalloc::telemetry
