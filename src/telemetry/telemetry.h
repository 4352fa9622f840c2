// Fleet-wide telemetry pipeline (DESIGN.md §4.13): barrier-sampled
// per-VM gauges summed into one fleet row per epoch, an SLO burn-rate
// monitor, and a black-box flight recorder.
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
// Flight recorder: a bounded ring of the last kFlightDepth epochs of
// fleet snapshots (fleet row, per-VM detail rows, allowlisted counter
// deltas). A trigger — alert edge, newly quarantined VM, or an
// admission-rejection spike — freezes the ring into a postmortem bundle:
// one `hyperalloc-flight-v2` JSON document plus one Perfetto
// counter-track JSON, both retained in the result (and written to disk
// by the bench harness).
//
// Compile-out: with -DHYPERALLOC_TRACE=0 Pipeline collapses to an empty
// stand-in (no sampling, no state); the plain-data result types stay
// available so FleetResult keeps its shape.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/base/types.h"
#include "src/sim/simulation.h"
#include "src/trace/trace.h"

namespace hyperalloc::telemetry {

// Burn-rate monitor. Budget is the error budget of the availability
// target (0.01 = "99% of epochs within SLO"); windows are in epochs.
inline constexpr double kSloResizeMs = 400.0;  // per-resize latency target
inline constexpr double kSloPressure = 0.97;   // committed/capacity ceiling
inline constexpr double kErrorBudget = 0.01;
inline constexpr double kBurnFastThreshold = 8.0;
inline constexpr double kBurnSlowThreshold = 2.0;
inline constexpr uint64_t kBurnFastEpochs = 3;
inline constexpr uint64_t kBurnSlowEpochs = 12;
// Flight recorder: epochs retained in the ring, dumps per run, and the
// dump debounce in epochs.
inline constexpr uint64_t kFlightDepth = 16;
inline constexpr uint64_t kFlightMaxDumps = 4;
inline constexpr uint64_t kFlightCooldownEpochs = 16;
// Admission-rejection spike trigger: rejections in ONE epoch at or above
// this freeze the recorder.
inline constexpr uint64_t kRejectSpikeThreshold = 16;
// Flight recorder: per ring epoch, at most this many per-VM detail rows
// are retained (the "interesting" VMs: busy, quarantined, or with
// nonzero fault/retry/rollback totals, in VM-index order). Rows past the
// cap are counted in the dump's per-epoch "vms_detail_omitted" — never
// silently dropped.
inline constexpr uint64_t kFlightVmDetailCap = 64;

struct TelemetryOptions {
  bool enabled = true;
};

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

// Fleet-level flat row, one per epoch: sums over the per-VM gauges
// (kept for the whole run; the flight ring additionally keeps per-VM
// detail rows).
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
  std::string json;      // the hyperalloc-flight-v2 document
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
  std::vector<AlertEvent> alert_events;
  std::vector<FlightDump> dumps;
};

// Perfetto counter-track JSON (Chrome trace, ph:"C") for fleet rows on
// pid 0 ("fleet"), one track per EpochSummary gauge, plus an instant
// marker per alert. ts is virtual µs, so it overlays the span trace from
// trace::WritePerfettoJson. Both the whole-run artifact and every flight
// dump's Perfetto bundle are this document.
std::string FleetPerfettoJson(std::span<const EpochSummary> epochs,
                              std::span<const AlertEvent> alerts);

#if HYPERALLOC_TRACE

class Pipeline {
 public:
  Pipeline(const TelemetryOptions& options, uint64_t vms);
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  bool enabled() const { return enabled_; }

  // The per-VM gauge rows the next OnEpoch folds, VM-index-ordered and
  // sized at construction. The producer rewrites every row in place
  // before each call (the fleet engine's workers each write their own
  // VM's row), so no row is allocated or copied per epoch; after the
  // last call they are the result's `vm_last`.
  std::vector<VmGauges>& rows() { return result_.vm_last; }

  // One barrier sample over rows(), on the sequential control thread.
  // `completed_ms` holds the latencies of resizes that completed since
  // the previous barrier (deterministic order); admission counters are
  // cumulative.
  void OnEpoch(sim::Time at, uint64_t committed_bytes, double pressure,
               uint64_t granted, uint64_t clipped, uint64_t rejected,
               const std::vector<double>& completed_ms);

  // Stamps the run totals and moves the result out.
  TelemetryResult Finish();

 private:
  // One ring epoch's detail; its fleet row is result_.fleet[epoch].
  struct FlightFrame {
    // Per-VM rows for the "interesting" VMs only (busy, quarantined, or
    // with nonzero fault/retry/rollback totals), in VM-index order,
    // capped at kFlightVmDetailCap. Copying and later serializing all
    // N VMs for every ring epoch is what made dumps cost tens of
    // milliseconds at 1024 VMs.
    std::vector<VmGauges> vm_detail;
    uint64_t vm_detail_omitted = 0;  // interesting rows past the cap
    // Allowlisted (deterministic) counter deltas over this epoch.
    std::vector<std::pair<std::string, uint64_t>> counter_deltas;
  };

  struct Burn {
    std::array<double, kBurnSlowEpochs> window{};  // per-epoch errors
    size_t next = 0;
    uint64_t filled = 0;
    bool firing = false;

    void Push(double error);
    double Rate(uint64_t epochs) const;
  };

  void MixGauges(const VmGauges& g);
  void MixSummary(const EpochSummary& e);
  // Writes the nonzero allowlisted counter deltas since the previous
  // call and makes the current values the next call's baseline.
  void CounterDeltas(std::vector<std::pair<std::string, uint64_t>>* out);
  void EmitMarker(sim::Time at, const char* name, uint64_t epoch);
  void MaybeDump(sim::Time at, bool alert_edge, bool new_quarantine,
                 uint64_t quarantined_vm, uint64_t rejected_delta);
  std::string BuildFlightJson(const FlightDump& dump) const;

  bool enabled_ = false;
  uint64_t vms_ = 0;
  uint64_t epochs_ = 0;

  TelemetryResult result_;
  // The last kFlightDepth epochs; epoch e lives at e % kFlightDepth.
  std::array<FlightFrame, kFlightDepth> ring_;
  std::vector<uint8_t> quarantined_;  // latched per-VM quarantine flags
  // The counter registry as the previous barrier read it.
  std::vector<std::pair<std::string, uint64_t>> counter_prev_;
  uint64_t prev_rejected_ = 0;
  Burn latency_burn_;
  Burn pressure_burn_;
  uint64_t cooldown_ = 0;
  uint64_t digest_ = 14695981039346656037ull;
  uint64_t flight_digest_ = 14695981039346656037ull;
};

#else  // !HYPERALLOC_TRACE

// Empty stand-in: same API surface, no state, no sampling.
class Pipeline {
 public:
  Pipeline(const TelemetryOptions&, uint64_t) {}
  bool enabled() const { return false; }
  std::vector<VmGauges>& rows() { return rows_; }
  void OnEpoch(sim::Time, uint64_t, double, uint64_t, uint64_t, uint64_t,
               const std::vector<double>&) {}
  TelemetryResult Finish() { return {}; }

 private:
  std::vector<VmGauges> rows_;  // stays empty
};

#endif  // HYPERALLOC_TRACE

}  // namespace hyperalloc::telemetry
