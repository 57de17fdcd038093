#include "src/tas/service.h"

#include <algorithm>

#include "src/cc/dctcp_rate.h"
#include "src/cc/dctcp_window.h"
#include "src/cc/timely.h"
#include "src/cc/window_rate.h"
#include "src/tas/fast_path.h"
#include "src/tas/slow_path.h"
#include "src/tas/steering.h"
#include "src/tas/watchdog.h"

namespace tas {
namespace {

// Seed of the stream flow ISNs are drawn from.
constexpr uint64_t kRngSeed = 0x7A5;

std::unique_ptr<RateCc> MakeRateCc(const TasConfig& config) {
  switch (config.cc_algorithm) {
    case CcAlgorithm::kDctcpRate:
      return std::make_unique<DctcpRateCc>(config.dctcp);
    case CcAlgorithm::kTimely:
      return std::make_unique<TimelyCc>();
    case CcAlgorithm::kDctcpWindow: {
      WindowCcConfig window;
      window.mss = config.mss;
      return std::make_unique<WindowRateCc>(std::make_unique<DctcpWindowCc>(window),
                                            config.dctcp.initial_bps);
    }
    default:
      TAS_LOG(FATAL) << "TAS runs kDctcpRate, kTimely or kDctcpWindow";
      return nullptr;
  }
}

}  // namespace

TasService::TasService(Simulator* sim, HostPort* port, const TasConfig& config)
    : sim_(sim), config_(config), rng_(kRngSeed) {
  // Enables the experiment's latency and causal tracers if this host is the
  // first to ask for them (see TraceConfig).
  tracer_ = std::make_unique<Tracer>(sim, config.trace);
  // Events and latency records cross hosts, so the experiment has one flight
  // recorder, configured by the first watchdog-enabled host, which alone
  // exports its recorder.* metrics. Every armed host still runs its own
  // watchdog below.
  FlightRecorder* configured_recorder =
      config.watchdog.enabled ? context().EnableRecorder(config.watchdog) : nullptr;
  NicConfig nic_config;
  nic_config.num_queues = config.max_fastpath_cores;
  nic_ = std::make_unique<SimNic>(sim, port, nic_config);

  slowpath_core_ = std::make_unique<Core>(sim, 1000, kCoreGhz);
  for (int i = 0; i < config.max_fastpath_cores; ++i) {
    fastpath_cores_.push_back(std::make_unique<Core>(sim, i, kCoreGhz));
    fastpaths_.push_back(std::make_unique<FastPathCore>(this, fastpath_cores_.back().get(), i));
  }
  slow_path_ = std::make_unique<SlowPath>(this, slowpath_core_.get());
  steering_ = std::make_unique<FlowGroupSteering>(this);
  RegisterTraceInstrumentation(configured_recorder);
  // The host's access link exports per-direction queue depth/high-water and
  // egress-fault counters into this host's bundle (switches register via the
  // harness; they belong to the network, not any one host).
  if (port->access_link != nullptr) {
    port->access_link->RegisterMetrics(&tracer_->metrics(), "link");
  }
  tracer_->metrics().ShrinkToFit();
  slow_path_->Start();
  if (config.watchdog.enabled) {
    // All flow events (every flow, every host) feed the recorder's rings.
    tracer_->flow_events().SetRecorderTap(context().recorder());
    watchdog_ = std::make_unique<SloWatchdog>(this, context().recorder());
    watchdog_->Start();
  }

  active_cores_ = config.dynamic_cores ? 1 : config.max_fastpath_cores;
  nic_->SetActiveQueues(active_cores_);
  core_series_->Append(sim->Now(), static_cast<double>(active_cores_));

  for (int i = 0; i < config.max_fastpath_cores; ++i) {
    nic_->SetRxNotify(i, [this, i] { fastpaths_[static_cast<size_t>(i)]->NotifyRx(); });
  }
}

void TasService::RegisterTraceInstrumentation(FlightRecorder* recorder) {
  MetricRegistry& m = tracer_->metrics();
  RegisterSimulatorMetrics(&m, sim_);
  // TasStats stays the storage; the registry holds thin counter views.
  m.AddCounter("tas.fastpath.rx_packets", &stats_.fastpath_rx_packets);
  m.AddCounter("tas.fastpath.tx_packets", &stats_.fastpath_tx_packets);
  m.AddCounter("tas.fastpath.acks_sent", &stats_.fastpath_acks_sent);
  m.AddCounter("tas.fastpath.rx_buffer_drops", &stats_.rx_buffer_drops);
  m.AddCounter("tas.fastpath.ooo_accepted", &stats_.ooo_accepted);
  m.AddCounter("tas.fastpath.ooo_dropped", &stats_.ooo_dropped);
  m.AddCounter("tas.fastpath.fast_retransmits", &stats_.fast_retransmits);
  m.AddCounter("tas.fastpath.pacing_rearms", &stats_.pacing_rearms);
  m.AddCounter("tas.fastpath.pacing_rearm_saved_ns", &stats_.pacing_rearm_saved_ns);
  m.AddCounter("tas.fastpath.exceptions", &stats_.exceptions);
  m.AddCounter("tas.fastpath.cross_core_packets", &stats_.cross_core_packets);
  m.AddCounter("tas.slowpath.packets", &stats_.slowpath_packets);
  for (size_t i = 0; i < kNumConnStates; ++i) {
    m.AddCounter("tas.slowpath.exceptions." + ConnStateKey(static_cast<ConnState>(i)),
                 &stats_.exceptions_by_state[i]);
  }
  for (const ExceptionClass c : {ExceptionClass::kFlow, ExceptionClass::kSetup}) {
    const size_t i = static_cast<size_t>(c);
    const std::string name = c == ExceptionClass::kFlow ? "flow" : "setup";
    m.AddCounter("tas.slowpath.exception_count." + name, &stats_.exception_count[i]);
    m.AddCounter("tas.slowpath.exception_wait_ns." + name, &stats_.exception_wait_ns[i]);
  }
  m.AddCounter("tas.slowpath.timeout_retransmits", &stats_.timeout_retransmits);
  m.AddCounter("tas.slowpath.handshake_retransmits", &stats_.handshake_retransmits);
  m.AddCounter("tas.slowpath.cc_bucket_growths", &stats_.cc_bucket_growths);
  m.AddCounter("tas.slowpath.connections_established", &stats_.connections_established);
  m.AddCounter("tas.slowpath.connections_closed", &stats_.connections_closed);
  m.AddGauge("tas.slowpath.max_ahead_ns",
             [this] { return static_cast<double>(slowpath_core_->max_ahead_ns()); });
  m.AddCounterFn("tas.slowpath.control_iterations",
                 [this] { return slow_path_->control_iterations(); });
  m.AddGauge("tas.active_cores", [this] { return static_cast<double>(active_cores_); });
  m.AddGauge("tas.live_flows", [this] { return static_cast<double>(live_flows_); });
  m.AddCounterFn("tas.flow_table.lookups", [this] { return flow_table_.stats().lookups; });
  m.AddCounterFn("tas.flow_table.probes", [this] { return flow_table_.stats().probes; });
  m.AddCounterFn("tas.flow_table.rehashes", [this] { return flow_table_.stats().rehashes; });
  m.AddCounterFn("tas.flow_table.tombstones_reused",
                 [this] { return flow_table_.stats().tombstones_reused; });
  m.AddGauge("tas.flow_table.load_factor", [this] { return flow_table_.LoadFactor(); });
  m.AddGauge("tas.flow_table.tombstones",
             [this] { return static_cast<double>(flow_table_.tombstones()); });
  m.AddGauge("tas.flow_table.avg_probe_len", [this] { return flow_table_.AvgProbeLength(); });
  m.AddGauge("tas.flow_table.max_probe_len",
             [this] { return static_cast<double>(flow_table_.stats().max_probe); });
  // Probe-length distribution (group-probe counts per lookup) as log-bucket
  // percentiles — the gate the million-flow churn bench regresses against.
  m.AddGauge("tas.flow_table.probe_p50", [this] {
    const LogHistogram& h = flow_table_.probe_hist();
    return h.count() == 0 ? 0.0 : static_cast<double>(h.ApproxPercentile(50));
  });
  m.AddGauge("tas.flow_table.probe_p99", [this] {
    const LogHistogram& h = flow_table_.probe_hist();
    return h.count() == 0 ? 0.0 : static_cast<double>(h.ApproxPercentile(99));
  });
  m.AddCounterFn("tas.flow_table.drift_rebuilds",
                 [this] { return flow_table_.stats().drift_rebuilds; });
  m.AddCounterFn("tas.steer.migrations", [this] { return steering_->migrations(); });
  m.AddCounterFn("tas.steer.group_moves", [this] { return steering_->group_moves(); });
  m.AddCounterFn("tas.steer.deferred_items", [this] { return steering_->deferred_items(); });
  // Instantaneous migration state (the cumulative counters above can't show a
  // STUCK drain): parked TX items, groups mid-quiesce, and the oldest drain's
  // age — the watchdog's and an operator's view of wedged migrations.
  m.AddGauge("tas.steer.deferred_depth",
             [this] { return static_cast<double>(steering_->DeferredDepth()); });
  m.AddGauge("tas.steer.draining_groups",
             [this] { return static_cast<double>(steering_->DrainingGroups()); });
  m.AddGauge("tas.steer.max_drain_age_ns", [this] {
    return static_cast<double>(steering_->MaxDrainAge(sim_->Now()));
  });
  // Fast-path batching: per-core counters aggregated across cores. The RX
  // occupancy histogram buckets are 0 / 1 / 2 / 3-4 / 5-8 / 9+ packets.
  m.AddCounterFn("tas.fastpath.batches", [this] {
    uint64_t sum = 0;
    for (auto& fp : fastpaths_) sum += fp->batches();
    return sum;
  });
  m.AddCounterFn("tas.fastpath.batch_items", [this] {
    uint64_t sum = 0;
    for (auto& fp : fastpaths_) sum += fp->batch_items();
    return sum;
  });
  static const char* kOccNames[FastPathCore::kOccBuckets] = {"0", "1", "2",
                                                             "4", "8", "9plus"};
  for (size_t b = 0; b < FastPathCore::kOccBuckets; ++b) {
    m.AddCounterFn(std::string("tas.fastpath.rx_batch_occ.") + kOccNames[b], [this, b] {
      uint64_t sum = 0;
      for (auto& fp : fastpaths_) sum += fp->rx_occupancy()[b];
      return sum;
    });
  }
  m.AddCounterFn("tas.contexts.doorbells_coalesced", [this] {
    uint64_t sum = 0;
    for (AppContext* ctx : contexts_) sum += ctx->doorbells_coalesced();
    return sum;
  });
  m.AddCounterFn("tas.contexts.dropped_events", [this] {
    uint64_t sum = 0;
    for (AppContext* ctx : contexts_) sum += ctx->dropped_events();
    return sum;
  });
  // Queue-occupancy high-water marks (latency anatomy: the depth behind each
  // queue-wait stage). Max across contexts / cores — the worst queue is the
  // one that explains the tail.
  m.AddGauge("tas.contexts.rx_queue_hw", [this] {
    size_t hw = 0;
    for (AppContext* ctx : contexts_) hw = std::max(hw, ctx->rx_queue_hw());
    return static_cast<double>(hw);
  });
  m.AddGauge("tas.contexts.tx_queue_hw", [this] {
    size_t hw = 0;
    for (AppContext* ctx : contexts_) hw = std::max(hw, ctx->tx_queue_hw());
    return static_cast<double>(hw);
  });
  m.AddGauge("tas.fastpath.work_queue_hw", [this] {
    size_t hw = 0;
    for (auto& fp : fastpaths_) hw = std::max(hw, fp->work_queue_hw());
    return static_cast<double>(hw);
  });
  if (tracer_->owns_latency()) {
    const LatencyTracer* lat = &tracer_->latency();
    m.AddCounterFn("latency.completed", [lat] { return lat->completed(); });
    m.AddCounterFn("latency.abandoned", [lat] { return lat->abandoned(); });
    m.AddCounterFn("latency.overwritten", [lat] { return lat->overwritten(); });
    m.AddCounterFn("latency.stale", [lat] { return lat->stale(); });
    m.AddCounterFn("latency.partition_mismatches",
                   [lat] { return lat->partition_mismatches(); });
  }
  if (tracer_->owns_causal()) {
    const CausalTracer* ct = &tracer_->causal();
    m.AddCounterFn("causal.completed", [ct] { return ct->completed(); });
    m.AddCounterFn("causal.abandoned", [ct] { return ct->abandoned(); });
    m.AddCounterFn("causal.dropped", [ct] { return ct->dropped(); });
    m.AddCounterFn("causal.stale", [ct] { return ct->stale(); });
    m.AddCounterFn("causal.truncated", [ct] { return ct->truncated(); });
    // Which per-trace cap actually bit (counts capped calls; `truncated`
    // above counts discarded traces) — the signal for resizing kMaxSpans/
    // kMaxMarks/kMaxLinks instead of guessing.
    m.AddCounterFn("causal.truncated_spans", [ct] { return ct->truncated_spans(); });
    m.AddCounterFn("causal.truncated_marks", [ct] { return ct->truncated_marks(); });
    m.AddCounterFn("causal.truncated_links", [ct] { return ct->truncated_links(); });
    m.AddCounterFn("causal.critical_path_mismatches",
                   [ct] { return ct->critical_path_mismatches(); });
  }
  // Ring-overflow visibility for every tracing surface: nonzero means the
  // corresponding export files are missing their oldest records.
  m.AddCounterFn("trace.dropped_spans", [this] { return tracer_->spans().dropped(); });
  m.AddCounterFn("trace.dropped_records", [this] { return tracer_->lost_records(); });
  // Flow-ring overwrites attributed to the event type that was lost, so a
  // wrapped ring says WHICH stream needs a bigger window. Every type
  // registers; types never overwritten read 0.
  for (int i = 0; i < kNumFlowEventTypes; ++i) {
    const auto type = static_cast<FlowEventType>(i);
    m.AddCounterFn(std::string("trace.dropped.flow.") + FlowEventTypeName(type),
                   [this, type] { return tracer_->flow_events().overwritten_by_type(type); });
  }
  if (config_.watchdog.enabled) {
    m.AddCounterFn("watchdog.checks",
                   [this] { return watchdog_ ? watchdog_->checks() : 0; });
    m.AddCounterFn("watchdog.breached_checks",
                   [this] { return watchdog_ ? watchdog_->breached_checks() : 0; });
    m.AddCounterFn("watchdog.triggers",
                   [this] { return watchdog_ ? watchdog_->triggers_fired() : 0; });
  }
  if (recorder != nullptr) {
    for (int s = 0; s < kNumRecorderStreams; ++s) {
      const auto stream = static_cast<RecorderStream>(s);
      const std::string prefix = std::string("recorder.") + RecorderStreamName(stream);
      m.AddCounterFn(prefix + ".recorded",
                     [recorder, stream] { return recorder->recorded(stream); });
      m.AddCounterFn(prefix + ".overwritten",
                     [recorder, stream] { return recorder->overwritten(stream); });
    }
    m.AddCounterFn("recorder.bundles", [recorder] {
      return static_cast<uint64_t>(recorder->bundles_written());
    });
  }
  nic_->RegisterMetrics(&m, "nic");
  context().pool().RegisterMetrics(&m, "pktpool");

  // Event-driven series behind the Fig 14 proportionality plot. Generous cap:
  // core transitions are rare (one per monitor interval at most).
  core_series_ = &tracer_->sampler().Series("tas.active_cores", 1u << 16);

  if (config_.trace.cpu_spans) {
    SpanRecorder& spans = tracer_->spans();
    const auto listen = [&spans](Core* core) {
      const int track = core->id();
      core->set_span_listener([&spans, track](CpuModule mod, TimeNs start, TimeNs end) {
        spans.Record(track, CpuModuleName(mod), start, end);
      });
    };
    spans.SetTrackName(slowpath_core_->id(), "slowpath-core");
    listen(slowpath_core_.get());
    for (auto& core : fastpath_cores_) {
      spans.SetTrackName(core->id(), "fastpath-core-" + std::to_string(core->id()));
      listen(core.get());
    }
  }

  if (config_.trace.sample_period > 0) {
    TimeSeriesSampler& sampler = tracer_->sampler();
    // Per-core utilization over each sample window (fraction busy since the
    // previous sweep). The window state lives in the hook's closure.
    struct UtilWindow {
      std::vector<TimeNs> busy;
      TimeNs last = 0;
    };
    auto win = std::make_shared<UtilWindow>();
    win->busy.resize(fastpath_cores_.size() + 1, 0);
    sampler.AddSweepHook([this, win](TimeNs now) {
      TimeSeriesSampler& s = tracer_->sampler();
      const TimeNs window = now - win->last;
      const auto util = [window](TimeNs busy_delta) {
        return window > 0
                   ? std::clamp(static_cast<double>(busy_delta) / static_cast<double>(window),
                                0.0, 1.0)
                   : 0.0;
      };
      for (size_t i = 0; i < fastpath_cores_.size(); ++i) {
        const TimeNs busy = fastpath_cores_[i]->busy_ns();
        s.Series("tas.core." + std::to_string(i) + ".util")
            .Append(now, util(busy - win->busy[i]));
        win->busy[i] = busy;
      }
      const TimeNs sp_busy = slowpath_core_->busy_ns();
      s.Series("tas.core.slow.util").Append(now, util(sp_busy - win->busy.back()));
      win->busy.back() = sp_busy;
      win->last = now;
    });
    // Flow-table probe percentiles + steering activity as sweep series: the
    // scale-out observability the §3.4 controller and the churn bench read.
    sampler.AddSweepHook([this](TimeNs now) {
      TimeSeriesSampler& s = tracer_->sampler();
      const LogHistogram& h = flow_table_.probe_hist();
      if (h.count() > 0) {
        s.Series("tas.flow_table.probe_p50")
            .Append(now, static_cast<double>(h.ApproxPercentile(50)));
        s.Series("tas.flow_table.probe_p99")
            .Append(now, static_cast<double>(h.ApproxPercentile(99)));
      }
      s.Series("tas.steer.migrations")
          .Append(now, static_cast<double>(steering_->migrations()));
      s.Series("tas.steer.group_moves")
          .Append(now, static_cast<double>(steering_->group_moves()));
    });
    if (tracer_->owns_latency()) {
      // Per-stage percentile series -> Perfetto counter tracks. Cumulative
      // percentiles (the histograms are never reset), sampled on the sweep.
      sampler.AddSweepHook([this](TimeNs now) {
        TimeSeriesSampler& s = tracer_->sampler();
        const LatencyTracer& lat = tracer_->latency();
        for (int i = 0; i < kNumLatencyStages; ++i) {
          const auto stage = static_cast<LatencyStage>(i);
          const LogHistogram& h = lat.stage_hist(stage);
          if (h.count() == 0) {
            continue;
          }
          const std::string p = std::string("latency.") + LatencyStageName(stage) + ".";
          s.Series(p + "p50_us")
              .Append(now, static_cast<double>(h.ApproxPercentile(50)) / 1000.0);
          s.Series(p + "p99_us")
              .Append(now, static_cast<double>(h.ApproxPercentile(99)) / 1000.0);
        }
        if (lat.e2e_hist().count() > 0) {
          s.Series("latency.e2e.p50_us")
              .Append(now, static_cast<double>(lat.e2e_hist().ApproxPercentile(50)) / 1000.0);
          s.Series("latency.e2e.p99_us")
              .Append(now, static_cast<double>(lat.e2e_hist().ApproxPercentile(99)) / 1000.0);
        }
      });
    }
    if (config_.trace.sample_flows) {
      sampler.AddSweepHook([this](TimeNs now) {
        TimeSeriesSampler& s = tracer_->sampler();
        for (uint32_t i = 0; i < flows_.slot_count(); ++i) {
          if (!flows_.SlotLive(i)) {
            continue;
          }
          const Flow* f = &flows_.SlotFlow(i);
          if (f->cstate == ConnState::kFreed) {
            continue;
          }
          const std::string p = "flow." + std::to_string(i) + ".";
          s.Series(p + "rate_mbps").Append(now, f->rate_bps / 1e6);
          s.Series(p + "inflight_bytes")
              .Append(now, static_cast<double>(f->fs.tx_sent));
          s.Series(p + "rx_buf_used").Append(now, static_cast<double>(f->RxUsed()));
          s.Series(p + "tx_buf_used")
              .Append(now, static_cast<double>(f->TxQueued()));
          s.Series(p + "rtt_us").Append(now, static_cast<double>(f->fs.rtt_est));
        }
      });
    }
    sampler.Start(config_.trace.sample_period);
  }
}

TasService::~TasService() = default;

IpAddr TasService::local_ip() const { return nic_->ip(); }

Core* TasService::fastpath_cpu(int i) { return fastpath_cores_[static_cast<size_t>(i)].get(); }
Core* TasService::slowpath_cpu() { return slowpath_core_.get(); }
FastPathCore* TasService::fastpath(int i) { return fastpaths_[static_cast<size_t>(i)].get(); }

uint16_t TasService::RegisterContext(AppContext* context) {
  contexts_.push_back(context);
  const uint16_t id = static_cast<uint16_t>(contexts_.size() - 1);
  context->set_fastpath_notify([this, id] { DrainContextCommands(id); });
  return id;
}

void TasService::DrainContextCommands(uint16_t context_id) {
  Fifo<TxCommand>& queue = contexts_[context_id]->tx();
  while (!queue.empty()) {
    const TxCommand cmd = queue.front();
    queue.pop_front();
    Flow* flow = flow_by_id(static_cast<FlowId>(cmd.flow_id));
    if (flow == nullptr || flow->cstate == ConnState::kFreed) {
      continue;
    }
    switch (cmd.type) {
      case TxCommandType::kSend:
        if (flow->FastPathEligible() && flow->TxAvailable() > 0) {
          ScheduleFlowTx(static_cast<FlowId>(cmd.flow_id), flow->next_tx_time);
        }
        break;
      case TxCommandType::kWindowUpdate:
        // The receive direction is what a window update reopens.
        if (flow->RxFastPathEligible()) {
          fastpaths_[static_cast<size_t>(CoreForFlow(*flow))]->EnqueueWindowUpdate(
              static_cast<FlowId>(cmd.flow_id));
        }
        break;
    }
  }
}

void TasService::Listen(uint16_t port, uint64_t opaque, uint16_t context) {
  slow_path_->CmdListen(port, opaque, context);
}

FlowId TasService::Connect(IpAddr dst_ip, uint16_t dst_port, uint64_t opaque,
                           uint16_t context) {
  const uint16_t local_port = AllocateEphemeralPort();
  const FlowKey key{local_port, dst_ip, dst_port};
  const FlowId id = AllocateFlow(key);
  Flow& flow = *flow_by_id(id);
  flow.fs.opaque = opaque != 0 ? opaque : id;
  flow.fs.context = context;
  flow.fs.local_port = local_port;
  flow.fs.peer_ip = dst_ip;
  flow.fs.peer_port = dst_port;
  flow.cstate = ConnState::kSynSent;
  slow_path_->CmdConnect(id);
  return id;
}

void TasService::Close(FlowId flow_id) { slow_path_->CmdClose(flow_id); }

Flow* TasService::GetFlow(FlowId flow_id) { return flow_by_id(flow_id); }

Flow* TasService::LookupFlow(const FlowKey& key) {
  const FlowId id = LookupFlowId(key);
  return id == kInvalidFlow ? nullptr : flow_by_id(id);
}

FlowId TasService::LookupFlowId(const FlowKey& key) { return flow_table_.Find(key); }

FlowId TasService::AllocateFlow(const FlowKey& key) {
  TAS_CHECK(flow_table_.Find(key) == kInvalidFlow);
  const FlowId id = flows_.Allocate();
  Flow* flow = flows_.Get(id);
  // Logical buffer sizes only: payload storage grows on the first write.
  flow->fs.rx_size = config_.rx_buffer_bytes;
  flow->fs.tx_size = config_.tx_buffer_bytes;
  flow->fs.local_port = key.local_port;
  flow->fs.peer_ip = key.peer_ip;
  flow->fs.peer_port = key.peer_port;
  flow->mss = config_.mss;
  flow->cold().cc = MakeRateCc(config_);
  flow->cold().cc_updated = sim_->Now();
  flow->rate_bps = flow->cold().cc->rate_bps();
  // A new flow starts with one initial window of credit, whenever it opens:
  // its first kInitialCwndSegments segments leave unpaced, as the engine
  // stacks' first cwnd does. After that, the bucket paces at rate_bps.
  flow->tx_tokens = static_cast<double>(kInitialCwndSegments * flow->mss);
  flow->tokens_updated = sim_->Now();

  // Our ISN anchors the transmit positions: the first payload byte is iss+1.
  const uint32_t iss = static_cast<uint32_t>(rng_.Next());
  flow->fs.seq = iss + 1;
  flow->fs.tx_head = iss + 1;
  flow->fs.tx_tail = iss + 1;
  flow->fs.tx_sent = 0;

  flow_table_.Insert(key, id);
  ports_.Acquire(key.local_port);
  ++live_flows_;
  return id;
}

void TasService::FreeFlow(FlowId id) {
  Flow* flow = flow_by_id(id);
  if (flow == nullptr) {
    return;
  }
  flow_table_.Erase(FlowKey{flow->fs.local_port, flow->fs.peer_ip, flow->fs.peer_port});
  ports_.Release(flow->fs.local_port);
  flows_.Free(id);
  --live_flows_;
}

uint16_t TasService::AllocateEphemeralPort() { return ports_.AllocateEphemeral(); }

int TasService::RedirectionEntryForFlow(const Flow& flow) const {
  Packet probe;
  probe.ip.src = flow.fs.peer_ip;
  probe.ip.dst = nic_->ip();
  probe.tcp.src_port = flow.fs.peer_port;
  probe.tcp.dst_port = flow.fs.local_port;
  return nic_->RedirectionEntryFor(probe);
}

int TasService::CoreForFlow(const Flow& flow) const {
  // The redirection table maps the entry to the queue == core index.
  return nic_->RedirectionEntryQueue(RedirectionEntryForFlow(flow));
}

void TasService::ScheduleFlowTx(FlowId id, TimeNs earliest) {
  Flow* flow = flow_by_id(id);
  if (flow == nullptr || flow->tx_pending) {
    return;
  }
  flow->tx_pending = true;
  if (earliest <= sim_->Now()) {
    DispatchFlowTx(id, *flow);
  } else {
    ArmPacingTimer(id, *flow, earliest);
  }
}

void TasService::ArmPacingTimer(FlowId id, Flow& flow, TimeNs when) {
  EventHandle& timer = flow.cold().pacing_timer;
  TAS_DCHECK(!timer.valid());
  // Freeing the flow cancels the timer (FlowCold::Reset), so it fires only
  // for a live flow.
  timer = sim_->At(when, [this, id] { DispatchFlowTx(id, *flow_by_id(id)); });
}

void TasService::DispatchFlowTx(FlowId id, const Flow& flow) {
  const int entry = RedirectionEntryForFlow(flow);
  if (steering_->Draining(entry)) {
    // The flow's group is mid-migration: park the work on the group; the
    // flip re-enqueues it on the target core. tx_pending stays set.
    steering_->DeferFlowTx(entry, id);
    return;
  }
  fastpaths_[static_cast<size_t>(nic_->RedirectionEntryQueue(entry))]->EnqueueFlowTx(id);
}

void TasService::PublishRate(FlowId id, Flow& flow, double rate_bps) {
  EventHandle& timer = flow.cold().pacing_timer;
  if (rate_bps <= flow.rate_bps || !timer.valid()) {
    // A lowered rate needs nothing: the bucket check when the timer fires
    // re-arms the flow.
    flow.rate_bps = rate_bps;
    return;
  }
  flow.rate_bps = rate_bps;
  // The bucket refills lazily, at the rate in force at the refill, over the
  // whole time since the last one: this is the first instant at which the
  // fire-time bucket check passes at the new rate.
  const TimeNs ready = std::max(
      sim_->Now(), flow.tokens_updated + flow.CreditWait(flow.NextSegmentLen()));
  if (ready >= flow.next_tx_time) {
    return;
  }
  timer.Cancel();
  stats_.pacing_rearms++;
  stats_.pacing_rearm_saved_ns += static_cast<uint64_t>(flow.next_tx_time - ready);
  flow.next_tx_time = ready;
  ArmPacingTimer(id, flow, ready);
}

void TasService::MarkFlowDirty(FlowId id) {
  Flow* flow = flow_by_id(id);
  if (flow == nullptr || flow->in_dirty) {
    return;
  }
  flow->in_dirty = true;
  dirty_flows_.push_back(id);
}

void TasService::SetActiveCores(int count) {
  TAS_CHECK(count >= 1 && count <= config_.max_fastpath_cores);
  if (count == active_cores_) {
    return;
  }
  active_cores_ = count;
  // Re-steer via quiesced flow-group migrations (paper §3.4): groups on
  // still-busy source cores drain first, idle ones flip immediately (which is
  // byte-identical to the old eager table rewrite). Outgoing application
  // work re-routes lazily via CoreForFlow on the next scheduling decision.
  steering_->SetActiveCores(count);
  core_series_->Append(sim_->Now(), static_cast<double>(count));
  // Kick newly added cores in case work is already queued for them.
  for (int i = 0; i < count; ++i) {
    fastpaths_[static_cast<size_t>(i)]->MaybeRun();
  }
}

}  // namespace tas
