#include "src/tas/watchdog.h"

#include <algorithm>
#include <sstream>

#include "src/cpu/core.h"
#include "src/net/packet.h"
#include "src/sim/context.h"
#include "src/sim/simulator.h"
#include "src/tas/fast_path.h"
#include "src/tas/service.h"
#include "src/tas/slow_path.h"
#include "src/tas/steering.h"
#include "src/trace/causal.h"
#include "src/trace/latency.h"
#include "src/trace/metric_registry.h"
#include "src/util/logging.h"

namespace tas {

SloWatchdog::SloWatchdog(TasService* service, FlightRecorder* recorder)
    : service_(service), recorder_(recorder) {
  source_ = "ip" + IpToString(service->local_ip());
  const WatchdogConfig& config = recorder->config();
  specs_ = config.slos.empty() ? DefaultSlos() : config.slos;
  for (const SloSpec& spec : specs_) {
    SloState state;
    state.spec = spec;
    states_.push_back(std::move(state));
  }
}

SloWatchdog::~SloWatchdog() = default;

void SloWatchdog::Start() {
  if (task_ != nullptr) {
    return;
  }
  TimeNs interval = recorder_->config().check_interval;
  if (interval <= 0) {
    interval = service_->config().monitor_interval;
  }
  last_check_ = service_->sim()->Now();
  task_ = std::make_unique<PeriodicTask>(service_->sim(), interval, [this] { Check(); });
  task_->Start();
}

double SloWatchdog::Measure(SloState& state, TimeNs window_ns, uint64_t* count) {
  *count = 0;
  switch (state.spec.kind) {
    case SloKind::kE2eLatencyP99: {
      LatencyTracer* tracer = service_->context().latency_sink();
      if (tracer == nullptr) {
        return 0;
      }
      const LogHistogram& cur = tracer->e2e_hist();
      const LogHistogram window = cur.DiffSince(state.prev_hist);
      state.prev_hist = cur;
      *count = window.count();
      return static_cast<double>(window.ApproxPercentile(99));
    }
    case SloKind::kRetransmitRate: {
      const TasStats& stats = service_->stats();
      const uint64_t total =
          stats.fast_retransmits + stats.timeout_retransmits + stats.handshake_retransmits;
      const uint64_t delta = total - state.prev_counter;
      state.prev_counter = total;
      *count = delta;
      return window_ns <= 0 ? 0 : static_cast<double>(delta) / ToSec(window_ns);
    }
    case SloKind::kSlowPathQueueDepth:
      *count = service_->slow_path()->exception_depth();
      return static_cast<double>(*count);
    case SloKind::kFlowTableProbeP99: {
      const LogHistogram& cur = service_->flow_table().probe_hist();
      const LogHistogram window = cur.DiffSince(state.prev_hist);
      state.prev_hist = cur;
      *count = window.count();
      return static_cast<double>(window.ApproxPercentile(99));
    }
    case SloKind::kCoreImbalance: {
      const int active = service_->active_cores();
      if (state.prev_busy.size() != static_cast<size_t>(service_->max_cores())) {
        state.prev_busy.assign(static_cast<size_t>(service_->max_cores()), 0);
      }
      uint64_t total = 0;
      uint64_t max_delta = 0;
      for (int i = 0; i < service_->max_cores(); ++i) {
        const TimeNs busy = service_->fastpath_cpu(i)->busy_ns();
        const uint64_t delta = static_cast<uint64_t>(busy - state.prev_busy[i]);
        state.prev_busy[i] = busy;
        if (i < active) {
          total += delta;
          max_delta = std::max(max_delta, delta);
        }
      }
      *count = total;
      if (active <= 1 || total == 0) {
        return 1.0;
      }
      const double mean = static_cast<double>(total) / active;
      return static_cast<double>(max_delta) / mean;
    }
    case SloKind::kMetricValue: {
      double value = 0;
      if (!service_->tracer().metrics().ReadValue(state.spec.metric, &value)) {
        return 0;
      }
      *count = ~0ull;  // Instantaneous read: no sample floor applies.
      return value;
    }
  }
  return 0;
}

void SloWatchdog::Check() {
  const TimeNs now = service_->sim()->Now();
  const TimeNs window_ns = now - last_check_;
  last_check_ = now;
  ++checks_;
  const WatchdogConfig& config = recorder_->config();
  for (SloState& state : states_) {
    uint64_t count = 0;
    const double measured = Measure(state, window_ns, &count);
    const bool breached = count >= state.spec.min_count && measured > state.spec.threshold;
    recorder_->RecordSlo(now, state.spec.kind, measured, breached);
    if (!breached) {
      state.streak = 0;
      continue;
    }
    ++breached_checks_;
    if (++state.streak < state.spec.burn_windows) {
      continue;
    }
    state.streak = 0;
    if (state.ever_triggered && now - state.last_trigger < config.cooldown) {
      continue;
    }
    state.ever_triggered = true;
    state.last_trigger = now;
    ++triggers_fired_;

    SloTrigger trigger;
    trigger.slo = state.spec.name;
    trigger.kind = state.spec.kind;
    trigger.measured = measured;
    trigger.threshold = state.spec.threshold;
    trigger.burn_windows = state.spec.burn_windows;
    trigger.t = now;
    trigger.window_from = std::max<TimeNs>(0, now - config.recorder_window);
    trigger.window_to = now;
    trigger.source = source_;
    recorder_->Trigger(std::move(trigger), [this] { return ContextJson(); });
  }
}

std::string SloWatchdog::ContextJson() const {
  std::ostringstream os;
  os << "{\"source\":";
  JsonEscape(source_, os);
  os << ",\"metrics\":[";
  bool first = true;
  for (const MetricSample& s : service_->tracer().metrics().Snapshot()) {
    if (!first) {
      os << ',';
    }
    first = false;
    os << "{\"name\":";
    JsonEscape(s.name, os);
    os << ",\"kind\":\"" << MetricKindName(s.kind) << "\",\"value\":" << JsonNumber(s.value)
       << '}';
  }
  os << ']';

  const FlowTable& table = service_->flow_table();
  os << ",\"flow_table\":{\"size\":" << table.size() << ",\"capacity\":" << table.capacity()
     << ",\"tombstones\":" << table.tombstones()
     << ",\"load_factor\":" << JsonNumber(table.LoadFactor())
     << ",\"avg_probe\":" << JsonNumber(table.AvgProbeLength())
     << ",\"probe_p50\":" << table.probe_hist().ApproxPercentile(50)
     << ",\"probe_p99\":" << table.probe_hist().ApproxPercentile(99)
     << ",\"rehash_in_progress\":" << (table.rehash_in_progress() ? "true" : "false")
     << '}';

  SlowPath* slow = service_->slow_path();
  os << ",\"slow_path\":{\"exception_depth\":" << slow->exception_depth()
     << ",\"exception_depth_hw\":" << slow->exception_depth_hw() << '}';

  FlowGroupSteering* steering = service_->steering();
  const TimeNs now = service_->sim()->Now();
  os << ",\"steering\":{\"deferred_depth\":" << steering->DeferredDepth()
     << ",\"draining_groups\":" << steering->DrainingGroups()
     << ",\"max_drain_age_ns\":" << steering->MaxDrainAge(now) << ",\"draining\":[";
  first = true;
  for (const FlowGroupSteering::DrainingGroup& g : steering->DrainingState()) {
    if (!first) {
      os << ',';
    }
    first = false;
    os << "{\"entry\":" << g.entry << ",\"source_core\":" << g.source_core
       << ",\"target_core\":" << g.target_core << ",\"drain_target\":" << g.drain_target
       << ",\"deferred\":" << g.deferred << ",\"started\":" << g.started << '}';
  }
  os << "]}";

  if (LatencyTracer* latency = service_->context().latency_sink()) {
    os << ",\"latency\":" << latency->Report().ToJson();
  }
  if (CausalTracer* causal = service_->context().causal_sink()) {
    os << ",\"critical_path\":" << causal->Report().ToJson();
  }
  os << '}';
  return os.str();
}

}  // namespace tas
