#include "src/telemetry/telemetry.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "src/base/check.h"
#include "src/trace/span.h"

namespace hyperalloc::telemetry {

const char* Name(AlertKind kind) {
  switch (kind) {
    case AlertKind::kLatencyBurn:
      return "latency_burn";
    case AlertKind::kPressureBurn:
      return "pressure_burn";
  }
  return "?";
}

const char* Name(FlightTrigger trigger) {
  switch (trigger) {
    case FlightTrigger::kAlert:
      return "alert";
    case FlightTrigger::kQuarantine:
      return "quarantine";
    case FlightTrigger::kRejectSpike:
      return "reject_spike";
  }
  return "?";
}

namespace {

double Gib(uint64_t bytes) {
  return static_cast<double>(bytes) / static_cast<double>(kGiB);
}

void Append(std::string* out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void Append(std::string* out, const char* format, ...) {
  char buffer[256];
  va_list args;
  va_start(args, format);
  const int n = std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  HA_CHECK(n >= 0 && n < static_cast<int>(sizeof(buffer)));
  out->append(buffer, static_cast<size_t>(n));
}

}  // namespace

std::string FleetPerfettoJson(std::span<const EpochSummary> epochs,
                              std::span<const AlertEvent> alerts) {
  std::string out;
  out.reserve(1024 + epochs.size() * 1024);
  Append(&out, "{\"traceEvents\":[\n");
  Append(&out,
         "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
         "\"args\":{\"name\":\"fleet\"}}");
  for (const EpochSummary& e : epochs) {
    const double ts = static_cast<double>(e.at) / 1000.0;  // virtual µs
    const struct {
      const char* name;
      double value;
    } tracks[] = {
        {"pressure", e.pressure},
        {"committed_gib", Gib(e.committed_bytes)},
        {"limit_gib", Gib(e.limit_bytes)},
        {"wss_gib", Gib(e.wss_bytes)},
        {"rss_gib", Gib(e.rss_bytes)},
        {"busy_vms", static_cast<double>(e.busy_vms)},
        {"quarantined_vms", static_cast<double>(e.quarantined_vms)},
        {"rejected_delta", static_cast<double>(e.rejected_delta)},
        {"latency_burn_fast", e.latency_burn_fast},
        {"pressure_burn_fast", e.pressure_burn_fast},
    };
    for (const auto& track : tracks) {
      Append(&out,
             ",\n{\"name\":\"%s\",\"ph\":\"C\",\"pid\":0,\"ts\":%.3f,"
             "\"args\":{\"value\":%.6f}}",
             track.name, ts, track.value);
    }
  }
  // Instant markers for the alert stream so alerts line up against the
  // counter tracks without loading the span trace.
  for (const AlertEvent& a : alerts) {
    Append(&out,
           ",\n{\"name\":\"alert.%s\",\"ph\":\"i\",\"pid\":0,"
           "\"ts\":%.3f,\"s\":\"g\"}",
           Name(a.kind), static_cast<double>(a.at) / 1000.0);
  }
  Append(&out, "\n],\"displayTimeUnit\":\"ns\"}\n");
  return out;
}

#if HYPERALLOC_TRACE

namespace {

constexpr uint64_t kFnvPrime = 1099511628211ull;

// Word-at-a-time FNV-1a variant: one xor+multiply per 64-bit value
// instead of eight. The digest is only ever compared for equality
// between runs of the same build, and the hot path mixes ~13 fields per
// VM per epoch — at 1024 VMs the byte-wise form alone costs hundreds of
// microseconds per epoch (a dependent-multiply chain), which blows the
// <5% telemetry wall-overhead budget.
void MixInto(uint64_t* h, uint64_t v) {
  *h ^= v;
  *h *= kFnvPrime;
}

void MixInto(uint64_t* h, double v) { MixInto(h, std::bit_cast<uint64_t>(v)); }

double Seconds(sim::Time t) {
  return static_cast<double>(t) / static_cast<double>(sim::kSec);
}

// Counter prefixes whose values are pure functions of the per-VM event
// streams (and therefore of virtual time). Anything that depends on the
// worker-thread interleaving must never enter the flight stream.
constexpr const char* kCounterAllowlist[] = {
    "monitor.", "fault.", "llfree.", "ept.",
    "iommu.",   "balloon.", "vmem.",  "guest.",
};

bool Allowlisted(const std::string& name) {
  for (const char* prefix : kCounterAllowlist) {
    if (name.compare(0, std::strlen(prefix), prefix) == 0) {
      return true;
    }
  }
  return false;
}

}  // namespace

void Pipeline::Burn::Push(double error) {
  window[next] = error;
  next = (next + 1) % kBurnSlowEpochs;
  filled = std::min(filled + 1, kBurnSlowEpochs);
}

double Pipeline::Burn::Rate(uint64_t epochs) const {
  if (filled == 0) {
    return 0.0;
  }
  // Mean error fraction over the last min(epochs, filled) samples.
  const uint64_t n = std::min(epochs, filled);
  double sum = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    sum += window[(next + kBurnSlowEpochs - 1 - i) % kBurnSlowEpochs];
  }
  return sum / static_cast<double>(n) / kErrorBudget;
}

Pipeline::Pipeline(const TelemetryOptions& options, uint64_t vms)
    : enabled_(options.enabled && vms > 0), vms_(vms) {
  if (!enabled_) {
    return;
  }
  quarantined_.assign(vms_, 0);
  result_.vm_peaks.assign(vms_, {});
  result_.vm_last.assign(vms_, {});
  counter_prev_ = trace::CounterRegistry::Global().Counters();
}

Pipeline::~Pipeline() = default;

void Pipeline::MixGauges(const VmGauges& g) {
  MixInto(&digest_, g.vm);
  MixInto(&digest_, g.limit_bytes);
  MixInto(&digest_, g.target_bytes);
  MixInto(&digest_, g.achieved_bytes);
  MixInto(&digest_, g.wss_bytes);
  MixInto(&digest_, g.rss_bytes);
  MixInto(&digest_, g.demand_bytes);
  MixInto(&digest_, static_cast<uint64_t>(g.busy) |
                        (static_cast<uint64_t>(g.quarantined) << 1));
  MixInto(&digest_, g.resizes);
  MixInto(&digest_, g.faults);
  MixInto(&digest_, g.retries);
  MixInto(&digest_, g.rollbacks);
  MixInto(&digest_, g.quarantined_frames);
}

void Pipeline::MixSummary(const EpochSummary& e) {
  MixInto(&digest_, e.epoch);
  MixInto(&digest_, e.at);
  MixInto(&digest_, e.pressure);
  MixInto(&digest_, e.committed_bytes);
  MixInto(&digest_, e.limit_bytes);
  MixInto(&digest_, e.wss_bytes);
  MixInto(&digest_, e.rss_bytes);
  MixInto(&digest_, e.busy_vms);
  MixInto(&digest_, e.quarantined_vms);
  MixInto(&digest_, e.granted);
  MixInto(&digest_, e.clipped);
  MixInto(&digest_, e.rejected);
  MixInto(&digest_, e.faults);
  MixInto(&digest_, e.retries);
  MixInto(&digest_, e.rollbacks);
  MixInto(&digest_, e.latency_burn_fast);
  MixInto(&digest_, e.latency_burn_slow);
  MixInto(&digest_, e.pressure_burn_fast);
  MixInto(&digest_, e.pressure_burn_slow);
  MixInto(&digest_, e.alerts);
}

void Pipeline::CounterDeltas(
    std::vector<std::pair<std::string, uint64_t>>* out) {
  out->clear();
  // Counters() is sorted by name, and so is the previous snapshot, so
  // the delta scan is a two-pointer merge. A counter registered mid-run
  // simply deltas against zero.
  std::vector<std::pair<std::string, uint64_t>> counters =
      trace::CounterRegistry::Global().Counters();
  size_t prev = 0;
  for (const auto& [name, value] : counters) {
    if (!Allowlisted(name)) {
      continue;
    }
    while (prev < counter_prev_.size() && counter_prev_[prev].first < name) {
      ++prev;
    }
    uint64_t base = 0;
    if (prev < counter_prev_.size() && counter_prev_[prev].first == name) {
      base = counter_prev_[prev].second;
    }
    // Zero deltas are dropped: counters register lazily on first use, so
    // whether an idle counter EXISTS depends on process history (e.g. a
    // prior run in the same process) — only nonzero deltas are a pure
    // function of this run's virtual-time activity.
    if (value != base) {
      out->emplace_back(name, value - base);
    }
  }
  counter_prev_ = std::move(counters);
}

void Pipeline::EmitMarker(sim::Time at, const char* name, uint64_t epoch) {
  trace::SpanTracer& spans = trace::SpanTracer::Global();
  if (!spans.enabled()) {
    return;
  }
  // Zero-length marker span on the pseudo "fleet" process (vm == fleet
  // size, one past the last real VM) so alerts render alongside the
  // request spans in Perfetto/ha_trace_tool without claiming a VM.
  trace::SpanRecord record;
  record.trace_id = spans.NewTraceId();
  record.span_id = spans.NewSpanId();
  record.vm = static_cast<uint32_t>(vms_);
  record.layer = trace::Layer::kTelemetry;
  record.name = name;
  record.begin_vns = at;
  record.end_vns = at;
  record.begin_wall_ns = trace::WallNowNs();
  record.end_wall_ns = record.begin_wall_ns;
  record.frames = epoch;  // the marker span carries its epoch index here
  spans.Emit(record);
}

void Pipeline::OnEpoch(sim::Time at, uint64_t committed_bytes,
                       double pressure, uint64_t granted, uint64_t clipped,
                       uint64_t rejected,
                       const std::vector<double>& completed_ms) {
  if (!enabled_) {
    return;
  }
  const std::vector<VmGauges>& gauges = result_.vm_last;
  HA_CHECK(gauges.size() == vms_);
  const uint64_t epoch_index = epochs_++;
  if (cooldown_ > 0) {
    --cooldown_;
  }

  EpochSummary e;
  e.epoch = epoch_index;
  e.at = at;
  e.pressure = pressure;
  e.committed_bytes = committed_bytes;
  e.granted = granted;
  e.clipped = clipped;
  e.rejected = rejected;
  e.rejected_delta = rejected - prev_rejected_;
  prev_rejected_ = rejected;

  bool new_quarantine = false;
  uint64_t first_quarantined = ~0ull;
  FlightFrame& frame = ring_[epoch_index % kFlightDepth];
  frame.vm_detail.clear();
  frame.vm_detail_omitted = 0;
  for (const VmGauges& g : gauges) {
    e.limit_bytes += g.limit_bytes;
    e.wss_bytes += g.wss_bytes;
    e.rss_bytes += g.rss_bytes;
    e.busy_vms += g.busy ? 1 : 0;
    e.quarantined_vms += g.quarantined ? 1 : 0;
    e.faults += g.faults;
    e.retries += g.retries;
    e.rollbacks += g.rollbacks;
    if (g.quarantined && quarantined_[g.vm] == 0) {
      quarantined_[g.vm] = 1;
      if (!new_quarantine) {
        first_quarantined = g.vm;
      }
      new_quarantine = true;
    }
    VmPeaks& peaks = result_.vm_peaks[g.vm];
    peaks.peak_wss_bytes = std::max(peaks.peak_wss_bytes, g.wss_bytes);
    if (g.limit_bytes > 0) {
      peaks.peak_pressure =
          std::max(peaks.peak_pressure, static_cast<double>(g.wss_bytes) /
                                            static_cast<double>(g.limit_bytes));
    }
    MixGauges(g);
    // Flight-ring detail: retain per-VM rows only for the VMs a
    // postmortem reader would look at — in a healthy fleet that is
    // near-zero rows instead of N. The filter reads only sampled gauge
    // values, so the selection (and thus the dump bytes) stays a pure
    // function of virtual time.
    const bool interesting = g.busy || g.quarantined ||
                             g.quarantined_frames > 0 || g.faults > 0 ||
                             g.retries > 0 || g.rollbacks > 0;
    if (interesting) {
      if (frame.vm_detail.size() >= kFlightVmDetailCap) {
        ++frame.vm_detail_omitted;
      } else {
        frame.vm_detail.push_back(g);
      }
    }
  }

  // Burn-rate windows. An epoch's latency error fraction is the share of
  // this epoch's resize completions over the latency target; the
  // pressure error is binary (over the ceiling or not).
  uint64_t late = 0;
  for (const double ms : completed_ms) {
    late += ms > kSloResizeMs ? 1 : 0;
  }
  const double latency_error =
      completed_ms.empty() ? 0.0
                           : static_cast<double>(late) /
                                 static_cast<double>(completed_ms.size());
  const double pressure_error = pressure > kSloPressure ? 1.0 : 0.0;
  latency_burn_.Push(latency_error);
  pressure_burn_.Push(pressure_error);
  e.latency_burn_fast = latency_burn_.Rate(kBurnFastEpochs);
  e.latency_burn_slow = latency_burn_.Rate(kBurnSlowEpochs);
  e.pressure_burn_fast = pressure_burn_.Rate(kBurnFastEpochs);
  e.pressure_burn_slow = pressure_burn_.Rate(kBurnSlowEpochs);

  bool alert_edge = false;
  const struct {
    Burn* burn;
    AlertKind kind;
    double fast;
    double slow;
  } monitors[] = {
      {&latency_burn_, AlertKind::kLatencyBurn, e.latency_burn_fast,
       e.latency_burn_slow},
      {&pressure_burn_, AlertKind::kPressureBurn, e.pressure_burn_fast,
       e.pressure_burn_slow},
  };
  for (const auto& m : monitors) {
    const bool fire =
        m.fast >= kBurnFastThreshold && m.slow >= kBurnSlowThreshold;
    if (fire && !m.burn->firing) {
      AlertEvent alert;
      alert.at = at;
      alert.epoch = epoch_index;
      alert.kind = m.kind;
      alert.burn_fast = m.fast;
      alert.burn_slow = m.slow;
      result_.alert_events.push_back(alert);
      alert_edge = true;
      EmitMarker(at,
                 m.kind == AlertKind::kLatencyBurn
                     ? "telemetry.alert.latency_burn"
                     : "telemetry.alert.pressure_burn",
                 epoch_index);
    }
    m.burn->firing = fire;
  }
  e.alerts = result_.alert_events.size();
  MixSummary(e);

  CounterDeltas(&frame.counter_deltas);
  result_.fleet.push_back(e);

  MaybeDump(at, alert_edge, new_quarantine, first_quarantined,
            e.rejected_delta);
}

void Pipeline::MaybeDump(sim::Time at, bool alert_edge, bool new_quarantine,
                         uint64_t quarantined_vm, uint64_t rejected_delta) {
  FlightTrigger trigger;
  if (alert_edge) {
    trigger = FlightTrigger::kAlert;
  } else if (new_quarantine) {
    trigger = FlightTrigger::kQuarantine;
  } else if (rejected_delta >= kRejectSpikeThreshold) {
    trigger = FlightTrigger::kRejectSpike;
  } else {
    return;
  }
  if (cooldown_ > 0 || result_.dumps.size() >= kFlightMaxDumps) {
    return;
  }
  cooldown_ = kFlightCooldownEpochs;

  FlightDump dump;
  dump.at = at;
  dump.epoch = epochs_ - 1;
  dump.trigger = trigger;
  dump.vm = trigger == FlightTrigger::kQuarantine ? quarantined_vm : ~0ull;
  dump.ring_epochs = std::min(epochs_, kFlightDepth);
  dump.json = BuildFlightJson(dump);
  dump.perfetto = FleetPerfettoJson(
      std::span(result_.fleet).last(dump.ring_epochs), {});
  for (const char c : dump.json) {
    flight_digest_ ^= static_cast<unsigned char>(c);
    flight_digest_ *= kFnvPrime;
  }
  EmitMarker(at, "telemetry.flight_dump", dump.epoch);
  result_.dumps.push_back(std::move(dump));
}

std::string Pipeline::BuildFlightJson(const FlightDump& dump) const {
  std::string out;
  out.reserve(4096 +
              dump.ring_epochs * (kFlightVmDetailCap * 224 + 768));
  Append(&out, "{\n  \"schema\": \"hyperalloc-flight-v2\",\n");
  Append(&out,
         "  \"trigger\": {\"kind\": \"%s\", \"epoch\": %" PRIu64
         ", \"at_s\": %.6f",
         Name(dump.trigger), dump.epoch, Seconds(dump.at));
  if (dump.vm != ~0ull) {
    Append(&out, ", \"vm\": %" PRIu64, dump.vm);
  }
  Append(&out, "},\n");
  Append(&out, "  \"vms\": %" PRIu64 ",\n", vms_);
  Append(&out, "  \"alerts\": [");
  for (size_t i = 0; i < result_.alert_events.size(); ++i) {
    const AlertEvent& a = result_.alert_events[i];
    Append(&out,
           "%s\n    {\"epoch\": %" PRIu64
           ", \"at_s\": %.6f, \"kind\": \"%s\", \"burn_fast\": %.6f, "
           "\"burn_slow\": %.6f}",
           i == 0 ? "" : ",", a.epoch, Seconds(a.at), Name(a.kind),
           a.burn_fast, a.burn_slow);
  }
  Append(&out, "%s],\n", result_.alert_events.empty() ? "" : "\n  ");
  Append(&out, "  \"epochs\": [");
  const uint64_t first = epochs_ - dump.ring_epochs;
  for (uint64_t epoch = first; epoch < epochs_; ++epoch) {
    const FlightFrame& f = ring_[epoch % kFlightDepth];
    const EpochSummary& e = result_.fleet[epoch];
    Append(&out,
           "%s\n    {\"epoch\": %" PRIu64 ", \"at_s\": %.6f, "
           "\"pressure\": %.6f, \"committed_bytes\": %" PRIu64
           ", \"limit_bytes\": %" PRIu64 ", \"wss_bytes\": %" PRIu64
           ", \"rss_bytes\": %" PRIu64 ",\n",
           epoch == first ? "" : ",", e.epoch, Seconds(e.at), e.pressure,
           e.committed_bytes, e.limit_bytes, e.wss_bytes, e.rss_bytes);
    Append(&out,
           "     \"busy_vms\": %" PRIu64 ", \"quarantined_vms\": %" PRIu64
           ", \"granted\": %" PRIu64 ", \"clipped\": %" PRIu64
           ", \"rejected\": %" PRIu64 ", \"rejected_delta\": %" PRIu64
           ",\n",
           e.busy_vms, e.quarantined_vms, e.granted, e.clipped, e.rejected,
           e.rejected_delta);
    Append(&out,
           "     \"faults\": %" PRIu64 ", \"retries\": %" PRIu64
           ", \"rollbacks\": %" PRIu64
           ", \"latency_burn_fast\": %.6f, \"latency_burn_slow\": %.6f, "
           "\"pressure_burn_fast\": %.6f, \"pressure_burn_slow\": %.6f,\n",
           e.faults, e.retries, e.rollbacks, e.latency_burn_fast,
           e.latency_burn_slow, e.pressure_burn_fast, e.pressure_burn_slow);
    Append(&out, "     \"counter_deltas\": {");
    for (size_t c = 0; c < f.counter_deltas.size(); ++c) {
      Append(&out, "%s\"%s\": %" PRIu64, c == 0 ? "" : ", ",
             f.counter_deltas[c].first.c_str(), f.counter_deltas[c].second);
    }
    Append(&out, "},\n");
    Append(&out, "     \"vms_detail_omitted\": %" PRIu64 ",\n",
           f.vm_detail_omitted);
    Append(&out, "     \"vms_detail\": [");
    for (size_t v = 0; v < f.vm_detail.size(); ++v) {
      const VmGauges& g = f.vm_detail[v];
      Append(&out,
             "%s\n      {\"vm\": %" PRIu64 ", \"limit_bytes\": %" PRIu64
             ", \"target_bytes\": %" PRIu64 ", \"achieved_bytes\": %" PRIu64
             ", \"wss_bytes\": %" PRIu64 ", \"rss_bytes\": %" PRIu64
             ", \"demand_bytes\": %" PRIu64,
             v == 0 ? "" : ",", g.vm, g.limit_bytes, g.target_bytes,
             g.achieved_bytes, g.wss_bytes, g.rss_bytes, g.demand_bytes);
      Append(&out,
             ", \"busy\": %u, \"quarantined\": %u, \"resizes\": %" PRIu64
             ", \"faults\": %" PRIu64 ", \"retries\": %" PRIu64
             ", \"rollbacks\": %" PRIu64 ", \"quarantined_frames\": %" PRIu64
             "}",
             g.busy ? 1 : 0, g.quarantined ? 1 : 0, g.resizes, g.faults,
             g.retries, g.rollbacks, g.quarantined_frames);
    }
    Append(&out, "%s]}", f.vm_detail.empty() ? "" : "\n     ");
  }
  Append(&out, "%s]\n}\n", dump.ring_epochs == 0 ? "" : "\n  ");
  return out;
}

TelemetryResult Pipeline::Finish() {
  result_.enabled = enabled_;
  result_.epochs = epochs_;
  result_.alerts = result_.alert_events.size();
  result_.flight_dumps = result_.dumps.size();
  result_.telemetry_digest = enabled_ ? digest_ : 0;
  result_.flight_digest = result_.dumps.empty() ? 0 : flight_digest_;
  return std::move(result_);
}

#endif  // HYPERALLOC_TRACE

}  // namespace hyperalloc::telemetry
