// Fleet-wide telemetry pipeline (DESIGN.md §4.13): barrier-sampled
// per-VM gauges, hierarchical per-shard/fleet aggregation into
// metrics::TimeSeries, an SLO burn-rate monitor, and a black-box flight
// recorder.
//
// Sampling model: the fleet engine calls Pipeline::OnEpoch exactly once
// per epoch barrier, on the sequential control thread, with every VM
// simulation quiesced at the barrier. Everything the pipeline reads is
// therefore a pure function of virtual time, which is what makes the
// whole stream — and the flight-dump bytes — byte-identical across
// worker-thread counts. Wall-clock values, host-pool high-water marks,
// and span/trace ids never enter the stream (the same "reported, never
// digested" discipline as FleetResult::pool_peak_frames).
//
// Burn-rate monitor: classic multi-window burn over the PR8 FleetSlo
// targets. Each epoch contributes an error fraction per SLO (resize
// completions over the latency target; pool pressure over its ceiling);
// burn = mean(error fraction over window) / error budget. An alert fires
// on the rising edge of (fast-window burn >= fast threshold AND
// slow-window burn >= slow threshold) and is emitted as a zero-length
// kTelemetry span.
//
// Flight recorder: a bounded ring of the last `flight_depth` epochs of
// full fleet snapshots (per-VM gauges, shard rollups, allowlisted
// counter deltas). A trigger — alert edge, newly quarantined VM, or an
// admission-rejection spike — freezes the ring into a postmortem bundle:
// one `hyperalloc-flight-v1` JSON document plus one Perfetto
// counter-track JSON, both retained in the result (and written to disk
// by the bench harness).
//
// Compile-out: with -DHYPERALLOC_TRACE=0 Pipeline collapses to an empty
// stand-in (no sampling, no state); the plain-data result types stay
// available so FleetResult keeps its shape.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/types.h"
#include "src/metrics/timeseries.h"
#include "src/sim/simulation.h"
#include "src/trace/trace.h"

namespace hyperalloc::telemetry {

struct TelemetryOptions {
  bool enabled = true;
  // Aggregation shards for the per-shard rollup. VM -> shard is the
  // static `vm % shards` association (see ShardOf).
  unsigned shards = 8;
  // Keep per-VM limit/WSS series in the result (the shard and fleet
  // series are always kept). Off by default: at 1024 VMs the per-VM
  // series dominate the result's footprint.
  bool record_vm_series = false;
  // Emit alert/flight markers as zero-length kTelemetry spans when the
  // global span tracer is enabled.
  bool emit_spans = true;

  // Burn-rate monitor. Budget is the error budget of the availability
  // target (0.01 = "99% of epochs within SLO"); windows are in epochs.
  double slo_resize_ms = 400.0;  // per-resize completion latency target
  double slo_pressure = 0.97;    // committed/capacity ceiling
  double error_budget = 0.01;
  unsigned burn_fast_epochs = 3;
  unsigned burn_slow_epochs = 12;
  double burn_fast_threshold = 8.0;
  double burn_slow_threshold = 2.0;

  // Flight recorder.
  unsigned flight_depth = 16;        // epochs retained in the ring
  unsigned flight_max_dumps = 4;     // hard cap per run
  unsigned flight_cooldown_epochs = 16;  // dump debounce
  // Admission-rejection spike trigger: rejections in ONE epoch at or
  // above this freeze the recorder. 0 disables the trigger.
  uint64_t reject_spike_threshold = 16;
  // Per ring epoch, at most this many per-VM detail rows are retained
  // (the "interesting" VMs: busy, quarantined, or with nonzero
  // fault/retry/rollback totals, in VM-index order). Rows past the cap
  // are counted in the dump's per-epoch "vms_detail_omitted" — never
  // silently dropped. 0 means unbounded.
  uint64_t flight_vm_detail_cap = 64;
};

// The static VM -> aggregation-shard association: a function of the VM
// index alone, never of which worker thread ran the VM, so the rollup
// stays deterministic across thread counts.
inline unsigned ShardOf(uint64_t vm, unsigned shards) {
  return shards == 0 ? 0 : static_cast<unsigned>(vm % shards);
}

// One VM's gauge set at an epoch barrier, read by the engine with the
// fleet quiesced. Counts are cumulative over the run.
struct VmGauges {
  uint64_t vm = 0;
  uint64_t limit_bytes = 0;
  uint64_t target_bytes = 0;    // in-flight resize target (0 = idle)
  uint64_t achieved_bytes = 0;  // last completed resize's achieved limit
  uint64_t wss_bytes = 0;       // control loop's WSS EWMA
  uint64_t rss_bytes = 0;
  uint64_t demand_bytes = 0;
  bool busy = false;         // resize in flight
  bool quarantined = false;  // VM-level fault quarantine (latched)
  uint64_t resizes = 0;      // completed resizes
  uint64_t faults = 0;       // injected faults on the resize path
  uint64_t retries = 0;
  uint64_t rollbacks = 0;
  uint64_t quarantined_frames = 0;
};

// Per-shard rollup (sums over the shard's VMs).
struct ShardGauges {
  unsigned shard = 0;
  uint64_t vms = 0;
  uint64_t limit_bytes = 0;
  uint64_t wss_bytes = 0;
  uint64_t rss_bytes = 0;
  uint64_t busy_vms = 0;
  uint64_t quarantined_vms = 0;
  uint64_t faults = 0;
};

// Fleet-level flat row, one per epoch (kept for the whole run; the
// flight ring additionally keeps the per-VM/per-shard detail).
struct EpochSummary {
  uint64_t epoch = 0;  // 0-based barrier index
  sim::Time at = 0;
  double pressure = 0.0;  // committed/capacity, clamped to [0, 1]
  uint64_t committed_bytes = 0;
  uint64_t limit_bytes = 0;  // fleet sums
  uint64_t wss_bytes = 0;
  uint64_t rss_bytes = 0;
  uint64_t busy_vms = 0;
  uint64_t quarantined_vms = 0;
  uint64_t granted = 0;  // cumulative admission counters
  uint64_t clipped = 0;
  uint64_t rejected = 0;
  uint64_t rejected_delta = 0;  // rejections in this epoch alone
  uint64_t faults = 0;          // cumulative fleet sums
  uint64_t retries = 0;
  uint64_t rollbacks = 0;
  double latency_burn_fast = 0.0;
  double latency_burn_slow = 0.0;
  double pressure_burn_fast = 0.0;
  double pressure_burn_slow = 0.0;
  uint64_t alerts = 0;  // cumulative alert count after this epoch
};

enum class AlertKind : uint8_t {
  kLatencyBurn,   // resize completions blowing the latency budget
  kPressureBurn,  // pool pressure over its ceiling
};
const char* Name(AlertKind kind);

struct AlertEvent {
  sim::Time at = 0;
  uint64_t epoch = 0;  // 0-based epoch index
  AlertKind kind = AlertKind::kLatencyBurn;
  double burn_fast = 0.0;
  double burn_slow = 0.0;
};

enum class FlightTrigger : uint8_t {
  kAlert,        // burn-rate alert rising edge
  kQuarantine,   // a VM newly entered fault quarantine
  kRejectSpike,  // admission rejections spiked in one epoch
};
const char* Name(FlightTrigger trigger);

struct FlightDump {
  sim::Time at = 0;
  uint64_t epoch = 0;
  FlightTrigger trigger = FlightTrigger::kAlert;
  uint64_t vm = ~0ull;  // kQuarantine: first newly quarantined VM
  uint64_t ring_epochs = 0;
  std::string json;      // the hyperalloc-flight-v1 document
  std::string perfetto;  // counter-track Chrome-trace JSON
};

// Per-VM peaks tracked across the run (ha_fleet_top's ranking inputs).
struct VmPeaks {
  uint64_t peak_wss_bytes = 0;
  double peak_pressure = 0.0;  // max over epochs of wss/limit
};

// Everything the pipeline produced. Plain data, always compiled.
struct TelemetryResult {
  bool enabled = false;
  uint64_t epochs = 0;
  uint64_t alerts = 0;
  uint64_t flight_dumps = 0;
  // FNV-1a over every sampled value (virtual-time only); byte-identical
  // across worker-thread counts.
  uint64_t telemetry_digest = 0;
  // FNV-1a over the concatenated flight-dump JSON bytes.
  uint64_t flight_digest = 0;
  std::vector<EpochSummary> fleet;
  std::vector<VmGauges> vm_last;    // final-epoch per-VM gauges
  std::vector<VmPeaks> vm_peaks;    // run peaks, index-aligned
  std::vector<ShardGauges> shard_last;
  // Hierarchical series: per-shard sums each epoch, and the fleet series
  // produced by metrics::MergeSum over the shard series (equal to
  // merging the raw per-VM series directly — tests/telemetry_test.cc).
  std::vector<metrics::TimeSeries> shard_limit_gib;
  std::vector<metrics::TimeSeries> shard_wss_gib;
  metrics::TimeSeries fleet_limit_gib;
  metrics::TimeSeries fleet_wss_gib;
  // record_vm_series only.
  std::vector<metrics::TimeSeries> vm_limit_gib;
  std::vector<metrics::TimeSeries> vm_wss_gib;
  std::vector<AlertEvent> alert_events;
  std::vector<FlightDump> dumps;
};

#if HYPERALLOC_TRACE

class Pipeline {
 public:
  // `epoch` is the barrier period (series time base).
  Pipeline(const TelemetryOptions& options, uint64_t vms, sim::Time epoch);
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  bool enabled() const { return enabled_; }

  // One barrier sample, on the sequential control thread. `gauges` is
  // VM-index-ordered; `completed_ms` holds the latencies of resizes that
  // completed since the previous barrier (deterministic scan order);
  // admission counters are cumulative. Taken by value so the per-epoch
  // producer can move its buffer in — the pipeline keeps it as the
  // last-seen snapshot instead of copying all N rows every epoch.
  void OnEpoch(sim::Time at, std::vector<VmGauges> gauges,
               uint64_t committed_bytes, double pressure, uint64_t granted,
               uint64_t clipped, uint64_t rejected,
               const std::vector<double>& completed_ms);

  // Finalizes the hierarchical series and moves the result out.
  TelemetryResult Finish();

 private:
  struct FlightFrame {
    EpochSummary fleet;
    // Per-VM rows for the "interesting" VMs only (busy, quarantined, or
    // with nonzero fault/retry/rollback totals), in VM-index order,
    // capped at flight_vm_detail_cap. Copying and later serializing all
    // N VMs for every ring epoch is what made dumps cost tens of
    // milliseconds at 1024 VMs.
    std::vector<VmGauges> vm_detail;
    uint64_t vm_detail_omitted = 0;  // interesting rows past the cap
    std::vector<ShardGauges> shards;
    // Allowlisted (deterministic) counter deltas over this epoch.
    std::vector<std::pair<std::string, uint64_t>> counter_deltas;
  };

  struct Burn {
    std::vector<double> window;  // ring of per-epoch error fractions
    size_t next = 0;
    uint64_t filled = 0;
    bool firing = false;

    void Push(double error, unsigned slow_epochs);
    double Rate(unsigned epochs, double budget) const;
  };

  void MixGauges(const VmGauges& g);
  void MixSummary(const EpochSummary& e);
  std::vector<std::pair<std::string, uint64_t>> CounterDeltas();
  void EmitMarker(sim::Time at, const char* name, uint64_t epoch);
  void MaybeDump(sim::Time at, bool alert_edge, bool new_quarantine,
                 uint64_t quarantined_vm, uint64_t rejected_delta);
  std::string BuildFlightJson(const FlightDump& dump) const;
  std::string BuildFlightPerfetto() const;

  TelemetryOptions options_;
  bool enabled_ = false;
  uint64_t vms_ = 0;
  unsigned shards_ = 1;
  sim::Time epoch_period_ = 0;
  uint64_t epochs_ = 0;

  TelemetryResult result_;
  std::vector<FlightFrame> ring_;  // ring of the last flight_depth epochs
  size_t ring_next_ = 0;
  uint64_t ring_filled_ = 0;
  std::vector<uint8_t> quarantined_;  // latched per-VM quarantine flags
  std::vector<std::pair<std::string, uint64_t>> counter_prev_;
  uint64_t prev_rejected_ = 0;
  Burn latency_burn_;
  Burn pressure_burn_;
  unsigned cooldown_ = 0;
  uint64_t digest_ = 14695981039346656037ull;
  uint64_t flight_digest_ = 14695981039346656037ull;
};

#else  // !HYPERALLOC_TRACE

// Empty stand-in: same API surface, no state, no sampling.
class Pipeline {
 public:
  Pipeline(const TelemetryOptions&, uint64_t, sim::Time) {}
  bool enabled() const { return false; }
  void OnEpoch(sim::Time, std::vector<VmGauges>, uint64_t, double, uint64_t,
               uint64_t, uint64_t, const std::vector<double>&) {}
  TelemetryResult Finish() { return {}; }
};

#endif  // HYPERALLOC_TRACE

}  // namespace hyperalloc::telemetry
