#include "src/tas/slow_path.h"

#include <algorithm>

#include "src/cc/dctcp_rate.h"
#include "src/cc/timely.h"
#include "src/tas/fast_path.h"
#include "src/tcp/seq.h"

namespace tas {
namespace {

// Slow-path CPU costs (cycles). These are deliberately heavy relative to the
// fast path: connection control involves the slow path and the application
// several times per handshake (paper §5.1, short-lived connections).
constexpr uint64_t kExceptionCycles = 600;
constexpr uint64_t kCcIterationCycles = 120;

// Synthetic span track for control-loop iterations (distinct from the
// slow-path core's Charge track so iteration boundaries stay visible).
constexpr int kControlLoopTrack = 1001;

// Retransmission timeout (paper §3.2): control intervals without ACK
// progress before the fast path is told to go back, and a floor on that wait
// (RFC 6298 clamps RTO from below; datacenter stacks use low-millisecond
// floors). The floor guards flows whose RTT estimate is missing or
// stale-low against spurious resets when queueing or batched delivery
// delays an ACK past a few control intervals.
constexpr int kRtoStallIntervals = 2;
constexpr TimeNs kMinRto = Ms(1);

constexpr TimeNs kTimeWait = Ms(1);

// Workload proportionality (paper §3.4): aggregate idle fast-path cores
// above which one is removed, and below which one is added.
constexpr double kIdleRemoveThreshold = 1.25;
constexpr double kIdleAddThreshold = 0.2;

uint32_t NowUs(Simulator* sim) { return static_cast<uint32_t>(sim->Now() / kNsPerUs); }

}  // namespace

SlowPath::SlowPath(TasService* service, Core* cpu) : service_(service), cpu_(cpu) {}

SlowPath::~SlowPath() = default;

void SlowPath::Start() {
  if (service_->tracer().spans().enabled()) {
    service_->tracer().spans().SetTrackName(kControlLoopTrack, "slowpath-control");
  }
  cc_task_ = std::make_unique<PeriodicTask>(service_->sim(), service_->config().control_interval,
                                            [this] { ControlLoop(); });
  cc_task_->Start();
  if (service_->config().dynamic_cores) {
    monitor_task_ = std::make_unique<PeriodicTask>(
        service_->sim(), service_->config().monitor_interval, [this] { MonitorCores(); });
    monitor_task_->Start();
  }
}

void SlowPath::EnqueueException(PacketPtr pkt) {
  const ExceptionClass cls = pkt->tcp.syn() && !pkt->tcp.ack_flag() ? ExceptionClass::kSetup
                                                                      : ExceptionClass::kFlow;
  Enqueue(cls, WorkItem{WorkKind::kSegment, kInvalidFlow, std::move(pkt)});
}

void SlowPath::Enqueue(ExceptionClass cls, WorkItem item) {
  item.enqueued = service_->sim()->Now();
  work_[static_cast<size_t>(cls)].push_back(std::move(item));
  exception_depth_hw_ = std::max<uint64_t>(exception_depth_hw_, exception_depth());
  MaybeProcess();
}

void SlowPath::MaybeProcess() {
  if (busy_) {
    return;
  }
  // Flow class first: each of its segments costs one exception charge and
  // comes from a connection that already exists, while each set-up item
  // books a connection set-up or teardown on this core. Set-up items wait
  // only while flow segments are queued.
  size_t cls = static_cast<size_t>(ExceptionClass::kFlow);
  if (work_[cls].empty()) {
    cls = static_cast<size_t>(ExceptionClass::kSetup);
    if (work_[cls].empty()) {
      return;
    }
  }
  busy_ = true;
  Simulator* sim = service_->sim();
  if (!cpu_->IdleAt(sim->Now())) {
    // The control loop's charges hold the core: start when they end.
    sim->At(cpu_->busy_until(), [this] {
      busy_ = false;
      MaybeProcess();
    });
    return;
  }
  WorkItem next = std::move(work_[cls].front());
  work_[cls].pop_front();
  const TimeNs done = cpu_->Charge(CpuModule::kTcp, ItemCycles(next));
  TasStats& stats = service_->mutable_stats();
  stats.exception_count[cls]++;
  stats.exception_wait_ns[cls] += done - next.enqueued;
  sim->At(done, [this, item = std::move(next)]() mutable {
    busy_ = false;
    RunItem(std::move(item));
    MaybeProcess();
  });
}

uint64_t SlowPath::ItemCycles(const WorkItem& item) const {
  const StackCostModel& costs = *service_->config().costs;
  switch (item.kind) {
    case WorkKind::kConnect:
      return costs.connection_setup / 2;
    case WorkKind::kClose:
      return costs.connection_teardown / 2;
    case WorkKind::kSegment:
      break;
  }
  const TcpHeader& tcp = item.pkt->tcp;
  // A SYN that opens a flow also pays the heavier, passive half of
  // connection set-up; a retransmitted one costs the exception alone.
  const bool opens_flow =
      tcp.syn() && !tcp.ack_flag() && listeners_.count(tcp.dst_port) != 0 &&
      service_->LookupFlowId(FlowKey{tcp.dst_port, item.pkt->ip.src, tcp.src_port}) ==
          kInvalidFlow;
  return kExceptionCycles + (opens_flow ? costs.connection_setup / 2 : 0);
}

void SlowPath::RunItem(WorkItem item) {
  if (item.kind == WorkKind::kSegment) {
    HandleException(std::move(item.pkt));
    return;
  }
  // The flow may have been released while the command waited.
  Flow* flow = service_->flow_by_id(item.flow);
  if (flow == nullptr || flow->cstate == ConnState::kFreed) {
    return;
  }
  if (item.kind == WorkKind::kConnect) {
    TraceState(item.flow, *flow);  // kSynSent (TasService::Connect set it).
    SendSyn(*flow);
    service_->flow_trace().Record(service_->sim()->Now(), item.flow, FlowEventType::kSynTx, 0);
  } else {
    flow->cold().app_closed = true;
    TrySendFin(item.flow, *flow);
  }
  AddPending(item.flow, *flow);
}

void SlowPath::HandleException(PacketPtr pkt) {
  service_->mutable_stats().slowpath_packets++;
  const FlowKey key{pkt->tcp.dst_port, pkt->ip.src, pkt->tcp.src_port};
  const FlowId id = service_->LookupFlowId(key);

  if (pkt->tcp.syn() && !pkt->tcp.ack_flag()) {
    if (id != kInvalidFlow) {
      // Retransmitted SYN for a half-open flow: re-send the SYN-ACK.
      Flow* flow = service_->flow_by_id(id);
      if (flow != nullptr && flow->cstate == ConnState::kSynRcvd) {
        SendSynAck(*flow);
      }
      return;
    }
    HandleSyn(*pkt);
    return;
  }

  if (id == kInvalidFlow) {
    return;  // Unknown flow (stale segment after teardown): drop.
  }
  Flow* flow = service_->flow_by_id(id);
  if (flow == nullptr) {
    return;
  }
  if (HandleFlowPacket(id, *flow, *pkt)) {
    // The packet raced a state change (e.g. payload piggybacked on the
    // handshake-completing ACK): hand it to the fast path now that the flow
    // is eligible. The exception charge already covered the CPU work.
    service_->fastpath(service_->CoreForFlow(*flow))->InjectPacket(std::move(pkt));
  }
}

void SlowPath::HandleSyn(const Packet& pkt) {
  auto listener_it = listeners_.find(pkt.tcp.dst_port);
  if (listener_it == listeners_.end()) {
    return;  // No listener: drop (a full stack would send RST).
  }
  const Listener& listener = listener_it->second;

  const FlowKey key{pkt.tcp.dst_port, pkt.ip.src, pkt.tcp.src_port};
  const FlowId id = service_->AllocateFlow(key);
  Flow& flow = *service_->flow_by_id(id);
  // The flow id is the event identity from the first byte on; libTAS keys
  // its connection table by it. The listener's opaque rides only on the
  // kAcceptable notification.
  flow.fs.opaque = id;
  flow.fs.context = listener.context;
  flow.fs.local_port = pkt.tcp.dst_port;
  flow.fs.peer_ip = pkt.ip.src;
  flow.fs.peer_port = pkt.tcp.src_port;

  // Peer's ISN anchors the receive positions.
  const uint32_t irs = pkt.tcp.seq;
  flow.fs.ack = irs + 1;
  flow.fs.rx_head = irs + 1;
  flow.fs.rx_tail = irs + 1;
  if (pkt.tcp.has_mss) {
    flow.mss = std::min<uint16_t>(flow.mss, pkt.tcp.mss);
  }
  flow.peer_wscale = pkt.tcp.has_wscale ? pkt.tcp.wscale : 0;
  SetPeerWindowBytes(flow.fs, pkt.tcp.window);  // SYN windows are unscaled.
  if (pkt.tcp.has_timestamps) {
    flow.ts_echo = pkt.tcp.ts_val;
  }
  flow.cstate = ConnState::kSynRcvd;
  service_->flow_trace().Record(service_->sim()->Now(), id, FlowEventType::kSynRx, irs);
  TraceState(id, flow);
  SendSynAck(flow);
  service_->flow_trace().Record(service_->sim()->Now(), id, FlowEventType::kSynTx, 1);
  AddPending(id, flow);
}

bool SlowPath::HandleFlowPacket(FlowId flow_id, Flow& flow, const Packet& pkt) {
  if (pkt.tcp.has_timestamps) {
    flow.ts_echo = pkt.tcp.ts_val;
  }
  if (pkt.tcp.rst()) {
    service_->flow_trace().Record(service_->sim()->Now(), flow_id, FlowEventType::kRstRx);
    if (flow.cstate == ConnState::kSynSent) {
      service_->context(flow.fs.context)
          ->PushEvent(AppEvent{AppEventType::kConnOpenFailed, flow.fs.opaque, flow_id});
      flow.cold().closed_event_sent = true;
    }
    ReleaseFlow(flow_id, flow);
    return false;
  }
  const bool payload_for_fastpath = !pkt.payload.empty() && !pkt.tcp.syn() && !pkt.tcp.fin();

  switch (flow.cstate) {
    case ConnState::kSynSent: {
      if (pkt.tcp.syn() && pkt.tcp.ack_flag() && pkt.tcp.ack == flow.fs.seq) {
        const uint32_t irs = pkt.tcp.seq;
        service_->flow_trace().Record(service_->sim()->Now(), flow_id,
                                      FlowEventType::kSynRx, irs);
        flow.fs.ack = irs + 1;
        flow.fs.rx_head = irs + 1;
        flow.fs.rx_tail = irs + 1;
        if (pkt.tcp.has_mss) {
          flow.mss = std::min<uint16_t>(flow.mss, pkt.tcp.mss);
        }
        flow.peer_wscale = pkt.tcp.has_wscale ? pkt.tcp.wscale : 0;
        SetPeerWindowBytes(flow.fs, pkt.tcp.window);
        SendControlAck(flow);
        Establish(flow_id, flow, /*from_listener=*/false);
        return payload_for_fastpath;
      }
      return false;
    }
    case ConnState::kSynRcvd: {
      if (pkt.tcp.ack_flag() && pkt.tcp.ack == flow.fs.seq) {
        SetPeerWindowBytes(flow.fs,
                           static_cast<uint64_t>(pkt.tcp.window) << flow.peer_wscale);
        Establish(flow_id, flow, /*from_listener=*/true);
        return payload_for_fastpath;
      }
      return false;
    }
    case ConnState::kEstablished:
    case ConnState::kCloseWait: {
      if (pkt.tcp.syn()) {
        // Retransmitted SYN-ACK: our handshake-completing ACK was lost.
        SendControlAck(flow);
        return false;
      }
      if (pkt.tcp.fin()) {
        HandleFin(flow_id, flow, pkt);
        return false;
      }
      // Data or ACK for a fast-path-eligible flow reached the slow path
      // (e.g. a race with core re-steering): bounce it back to the fast
      // path. kCloseWait is eligible too — the local direction still streams.
      return true;
    }
    case ConnState::kFinWait1: {
      if (payload_for_fastpath) {
        // The peer's direction is still open, and its data (with the ack of
        // our FIN it may carry) belongs to the fast path: this segment raced
        // a state change on its way here. Bounce it back.
        return true;
      }
      const bool acks_fin = pkt.tcp.ack_flag() && pkt.tcp.ack == flow.AckSeq();
      if (pkt.tcp.fin()) {
        if (acks_fin) {
          flow.cold().fin_acked = true;
          flow.ReleaseFinishedRings();
        }
        HandleFin(flow_id, flow, pkt);  // Moves on to TIME_WAIT if acked.
      } else if (acks_fin) {
        FinAcked(flow_id, flow);
      }
      return false;
    }
    case ConnState::kFinWait2: {
      if (pkt.tcp.fin()) {
        HandleFin(flow_id, flow, pkt);
        return false;
      }
      return payload_for_fastpath;  // As in kFinWait1.
    }
    case ConnState::kLastAck: {
      if (pkt.tcp.ack_flag() && pkt.tcp.ack == flow.AckSeq()) {
        ReleaseFlow(flow_id, flow);
      }
      return false;
    }
    case ConnState::kTimeWait: {
      if (pkt.tcp.fin()) {
        SendControlAck(flow);  // Retransmitted FIN: re-ACK.
      }
      return false;
    }
    case ConnState::kFreed:
      return false;
  }
  return false;
}

void SlowPath::FinAcked(FlowId flow_id, Flow& flow) {
  flow.cold().fin_acked = true;
  flow.ReleaseFinishedRings();
  if (flow.cold().fin_received) {
    flow.cstate = ConnState::kTimeWait;
    flow.cold().timewait_start = service_->sim()->Now();
  } else {
    flow.cstate = ConnState::kFinWait2;
  }
  TraceState(flow_id, flow);
}

void SlowPath::HandleFin(FlowId flow_id, Flow& flow, const Packet& pkt) {
  service_->flow_trace().Record(service_->sim()->Now(), flow_id, FlowEventType::kFinRx,
                                pkt.tcp.seq);
  // Deliver any payload riding with the FIN if it is in order.
  uint32_t fin_seq = pkt.tcp.seq;
  if (!pkt.payload.empty()) {
    const uint32_t len = static_cast<uint32_t>(pkt.payload.size());
    if (pkt.tcp.seq == flow.fs.ack && len <= flow.RxFree()) {
      flow.CopyIntoRx(pkt.tcp.seq, pkt.payload.data(), len);
      flow.fs.ack += len;
      flow.fs.rx_head += len;
      service_->context(flow.fs.context)
          ->PushEvent(AppEvent{AppEventType::kRxData, flow.fs.opaque, len});
    }
    fin_seq += len;
  }
  if (fin_seq != flow.fs.ack) {
    SendControlAck(flow);  // Out-of-order FIN: duplicate ACK, peer resends.
    return;
  }
  flow.fs.ack += 1;  // Consume the FIN.
  flow.cold().fin_received = true;
  flow.ReleaseFinishedRings();
  SendControlAck(flow);

  NotifyRemoteClosed(flow);

  switch (flow.cstate) {
    case ConnState::kEstablished:
      flow.cstate = ConnState::kCloseWait;
      TraceState(flow_id, flow);
      AddPending(flow_id, flow);
      break;
    case ConnState::kFinWait1:
      flow.cstate = flow.cold().fin_acked ? ConnState::kTimeWait : ConnState::kFinWait1;
      if (flow.cstate == ConnState::kTimeWait) {
        flow.cold().timewait_start = service_->sim()->Now();
        TraceState(flow_id, flow);
      }
      break;
    case ConnState::kFinWait2:
      flow.cstate = ConnState::kTimeWait;
      flow.cold().timewait_start = service_->sim()->Now();
      TraceState(flow_id, flow);
      break;
    default:
      break;
  }
}

void SlowPath::CmdListen(uint16_t port, uint64_t opaque, uint16_t context) {
  listeners_[port] = Listener{opaque, context};
}

void SlowPath::CmdConnect(FlowId flow_id) {
  TAS_CHECK(service_->flow_by_id(flow_id) != nullptr);
  Enqueue(ExceptionClass::kSetup, WorkItem{WorkKind::kConnect, flow_id, nullptr});
}

void SlowPath::CmdClose(FlowId flow_id) {
  const Flow* flow = service_->flow_by_id(flow_id);
  if (flow == nullptr || flow->cstate == ConnState::kFreed) {
    return;
  }
  Enqueue(ExceptionClass::kSetup, WorkItem{WorkKind::kClose, flow_id, nullptr});
}

void SlowPath::TrySendFin(FlowId flow_id, Flow& flow) {
  if (!flow.cold().app_closed || !flow.FastPathEligible()) {
    return;  // Not closing, still in handshake, or the FIN is already out.
  }
  // Wait until all queued payload is sent and acknowledged.
  if (flow.TxQueued() > 0) {
    AddPending(flow_id, flow);
    return;
  }
  flow.cstate =
      flow.cstate == ConnState::kEstablished ? ConnState::kFinWait1 : ConnState::kLastAck;
  TraceState(flow_id, flow);
  SendFin(flow);
  service_->flow_trace().Record(service_->sim()->Now(), flow_id, FlowEventType::kFinTx,
                                flow.fs.seq);
}

void SlowPath::SendSyn(Flow& flow) {
  auto syn = service_->FlowSegment(flow.fs, flow.fs.seq - 1, 0, TcpFlags::kSyn);
  syn->tcp.has_mss = true;
  syn->tcp.mss = flow.mss;
  syn->tcp.has_wscale = true;
  syn->tcp.wscale = Flow::kWindowScale;
  // Copy out first: fs is packed, and std::min would bind a reference to the
  // misaligned field.
  const uint32_t rx_size = flow.fs.rx_size;
  syn->tcp.window = static_cast<uint16_t>(std::min<uint32_t>(rx_size, 0xFFFF));
  syn->tcp.has_timestamps = true;
  syn->tcp.ts_val = NowUs(service_->sim());
  syn->enqueued_at = service_->sim()->Now();
  flow.cold().last_ctrl_send = service_->sim()->Now();
  service_->nic()->Transmit(std::move(syn));
}

void SlowPath::SendSynAck(Flow& flow) {
  auto synack = service_->FlowSegment(flow.fs, flow.fs.seq - 1, flow.fs.ack,
                                      TcpFlags::kSyn | TcpFlags::kAck);
  synack->tcp.has_mss = true;
  synack->tcp.mss = flow.mss;
  synack->tcp.has_wscale = true;
  synack->tcp.wscale = Flow::kWindowScale;
  const uint32_t rx_size = flow.fs.rx_size;  // Packed field; see SendSyn.
  synack->tcp.window = static_cast<uint16_t>(std::min<uint32_t>(rx_size, 0xFFFF));
  synack->tcp.has_timestamps = true;
  synack->tcp.ts_val = NowUs(service_->sim());
  synack->tcp.ts_ecr = flow.ts_echo;
  synack->enqueued_at = service_->sim()->Now();
  flow.cold().last_ctrl_send = service_->sim()->Now();
  service_->nic()->Transmit(std::move(synack));
}

void SlowPath::SendFin(Flow& flow) {
  auto fin =
      service_->FlowSegment(flow.fs, flow.fs.seq, flow.fs.ack, TcpFlags::kFin | TcpFlags::kAck);
  fin->tcp.window = flow.WindowField();
  fin->tcp.has_timestamps = true;
  fin->tcp.ts_val = NowUs(service_->sim());
  fin->tcp.ts_ecr = flow.ts_echo;
  fin->enqueued_at = service_->sim()->Now();
  flow.cold().last_ctrl_send = service_->sim()->Now();
  service_->nic()->Transmit(std::move(fin));
}

void SlowPath::SendControlAck(Flow& flow) {
  auto ack = service_->FlowSegment(flow.fs, flow.AckSeq(), flow.fs.ack, TcpFlags::kAck);
  ack->tcp.window = flow.WindowField();
  ack->tcp.has_timestamps = true;
  ack->tcp.ts_val = NowUs(service_->sim());
  ack->tcp.ts_ecr = flow.ts_echo;
  ack->enqueued_at = service_->sim()->Now();
  service_->nic()->Transmit(std::move(ack));
}

void SlowPath::Establish(FlowId flow_id, Flow& flow, bool from_listener) {
  flow.cstate = ConnState::kEstablished;
  flow.cold().established_at = service_->sim()->Now();
  flow.cold().ctrl_retries = 0;
  service_->mutable_stats().connections_established++;
  TraceState(flow_id, flow);
  if (from_listener) {
    service_->context(flow.fs.context)
        ->PushEvent(AppEvent{AppEventType::kAcceptable, flow.fs.opaque, flow_id});
  } else {
    service_->context(flow.fs.context)
        ->PushEvent(AppEvent{AppEventType::kConnOpened, flow.fs.opaque, flow_id});
  }
  // The app may already have queued payload (unusual); kick transmit.
  if (flow.TxAvailable() > 0) {
    service_->ScheduleFlowTx(flow_id, 0);
  }
}

void SlowPath::NotifyRemoteClosed(Flow& flow) {
  if (flow.cold().fin_event_sent) {
    return;
  }
  flow.cold().fin_event_sent = true;
  service_->context(flow.fs.context)
      ->PushEvent(AppEvent{AppEventType::kConnFin, flow.fs.opaque, 0});
}

void SlowPath::NotifyClosed(Flow& flow) {
  if (flow.cold().closed_event_sent) {
    return;
  }
  flow.cold().closed_event_sent = true;
  service_->context(flow.fs.context)
      ->PushEvent(AppEvent{AppEventType::kConnClosed, flow.fs.opaque, 0});
}

void SlowPath::ReleaseFlow(FlowId flow_id, Flow& flow) {
  if (flow.cstate == ConnState::kFreed) {
    return;
  }
  NotifyClosed(flow);
  flow.cstate = ConnState::kFreed;
  TraceState(flow_id, flow);
  service_->mutable_stats().connections_closed++;
  service_->FreeFlow(flow_id);
}

void SlowPath::TraceState(FlowId flow_id, const Flow& flow) {
  service_->flow_trace().Record(service_->sim()->Now(), flow_id, FlowEventType::kConnState,
                                static_cast<uint64_t>(flow.cstate));
}

void SlowPath::AddPending(FlowId flow_id, Flow& flow) {
  if (flow.cold().in_pending) {
    return;
  }
  flow.cold().in_pending = true;
  pending_.push_back(flow_id);
}

void SlowPath::ControlLoop() {
  const TimeNs busy_before = cpu_->busy_until();
  // Congestion control for flows with recent activity (paper: the slow path
  // runs a control-loop iteration per flow every control interval; flows
  // without feedback and without outstanding data have nothing to update).
  // Flows re-marked below land in the service's list, which now holds the
  // previous iteration's emptied buffer.
  dirty_scratch_.swap(service_->dirty_flows());
  for (FlowId id : dirty_scratch_) {
    Flow* flow = service_->flow_by_id(id);
    if (flow == nullptr || flow->cstate == ConnState::kFreed) {
      continue;
    }
    flow->in_dirty = false;
    RunCongestionControl(id, *flow);
  }
  dirty_scratch_.clear();
  ScanPending();
  SpanRecorder& spans = service_->tracer().spans();
  if (spans.enabled()) {
    // The iteration's charges occupy [max(now, prior busy), new busy front).
    const TimeNs start = std::max(service_->sim()->Now(), busy_before);
    const TimeNs end = cpu_->busy_until();
    if (end > start) {
      spans.Record(kControlLoopTrack, "control_loop", start, end);
    }
  }
}

void SlowPath::RunCongestionControl(FlowId flow_id, Flow& flow) {
  ++control_iterations_;
  cpu_->Charge(CpuModule::kTcp, kCcIterationCycles);
  const TimeNs interval = service_->config().control_interval;

  CcFeedback feedback;
  feedback.acked_bytes = flow.fs.cnt_ackb;
  feedback.ecn_bytes = flow.fs.cnt_ecnb;
  feedback.retransmits = flow.fs.cnt_frexmits;
  feedback.rtt = static_cast<TimeNs>(flow.fs.rtt_est) * kNsPerUs;
  feedback.actual_tx_bps =
      static_cast<double>(flow.fs.cnt_ackb) * 8.0 / ToSec(interval);
  feedback.app_limited = flow.TxAvailable() == 0;

  // Retransmission timeout detection (paper §3.2): outstanding data with no
  // ACK progress across control intervals triggers a fast-path reset. The
  // timer is armed by the oldest unacked byte — transmitting *new* data does
  // not rearm it (RFC 6298 §5.1), so a sender trickling fresh segments into a
  // black hole still times out. The seq-unchanged fallback applies only to
  // flows with no RTT sample yet (first window still in flight), where the
  // 4*RTT guard below cannot protect a long path from a spurious reset.
  bool timed_out = false;
  if (flow.fs.tx_sent > 0 && flow.fs.cnt_ackb == 0 &&
      (flow.fs.rtt_est > 0 || flow.fs.seq == flow.cold().last_seq_sampled)) {
    const TimeNs rtt = static_cast<TimeNs>(flow.fs.rtt_est) * kNsPerUs;
    const TimeNs stall_ns =
        std::max(kMinRto, static_cast<TimeNs>(kRtoStallIntervals) * interval);
    const int required = std::max<int>(
        static_cast<int>(stall_ns / std::max<TimeNs>(interval, 1)),
        static_cast<int>(4 * rtt / std::max<TimeNs>(interval, 1)) + 1);
    if (++flow.cold().stalled_intervals >= required) {
      timed_out = true;
      flow.cold().stalled_intervals = 0;
    }
  } else {
    flow.cold().stalled_intervals = 0;
  }
  flow.cold().last_seq_sampled = flow.fs.seq;
  if (timed_out) {
    service_->mutable_stats().timeout_retransmits++;
    feedback.retransmits += 1;
    feedback.timed_out = true;
    // Instruct the fast path to reset and retransmit.
    flow.fs.seq = flow.fs.tx_tail;
    flow.fs.tx_sent = 0;
    service_->flow_trace().Record(service_->sim()->Now(), flow_id,
                                  FlowEventType::kTimeoutRetransmit, flow.fs.tx_tail,
                                  static_cast<uint64_t>(kRtoStallIntervals));
    service_->ScheduleFlowTx(flow_id, 0);
  }

  service_->PublishRate(flow_id, flow, flow.cold().cc->Update(feedback));
  if (service_->flow_trace().enabled(flow_id)) {
    // ECN fraction of acked bytes in parts per million (fits the integer slot).
    const uint64_t ecn_ppm =
        feedback.acked_bytes > 0
            ? feedback.ecn_bytes * 1'000'000u / feedback.acked_bytes
            : 0;
    service_->flow_trace().Record(service_->sim()->Now(), flow_id,
                                  FlowEventType::kCcUpdate,
                                  static_cast<uint64_t>(flow.rate_bps), ecn_ppm,
                                  static_cast<uint64_t>(flow.fs.rtt_est));
  }
  flow.fs.cnt_ackb = 0;
  flow.fs.cnt_ecnb = 0;
  flow.fs.cnt_frexmits = 0;

  // Keep watching flows with outstanding data (for RTO detection).
  if (flow.fs.tx_sent > 0 || flow.TxAvailable() > 0) {
    service_->MarkFlowDirty(flow_id);
  }
}

void SlowPath::ScanPending() {
  const TimeNs now = service_->sim()->Now();
  const TasConfig& config = service_->config();
  for (FlowId id : pending_) {
    Flow* fp = service_->flow_by_id(id);
    if (fp == nullptr || fp->cstate == ConnState::kFreed) {
      continue;
    }
    Flow& flow = *fp;
    bool still_pending = true;
    switch (flow.cstate) {
      case ConnState::kSynSent:
      case ConnState::kSynRcvd: {
        const TimeNs rto = config.handshake_rto << std::min(flow.cold().ctrl_retries, 6);
        if (now - flow.cold().last_ctrl_send >= rto) {
          if (++flow.cold().ctrl_retries > config.max_handshake_retries) {
            if (flow.cstate == ConnState::kSynSent) {
              service_->context(flow.fs.context)
                  ->PushEvent(AppEvent{AppEventType::kConnOpenFailed, flow.fs.opaque, id});
              flow.cold().closed_event_sent = true;
            }
            ReleaseFlow(id, flow);
            still_pending = false;
          } else if (flow.cstate == ConnState::kSynSent) {
            service_->mutable_stats().handshake_retransmits++;
            service_->flow_trace().Record(now, id, FlowEventType::kHandshakeRetransmit, 1);
            SendSyn(flow);
          } else {
            service_->mutable_stats().handshake_retransmits++;
            service_->flow_trace().Record(now, id, FlowEventType::kHandshakeRetransmit, 2);
            SendSynAck(flow);
          }
        }
        break;
      }
      case ConnState::kEstablished:
      case ConnState::kCloseWait: {
        if (flow.cold().app_closed) {
          TrySendFin(id, flow);
        } else {
          still_pending = false;
        }
        break;
      }
      case ConnState::kFinWait1:
      case ConnState::kLastAck: {
        const TimeNs rto = config.handshake_rto << std::min(flow.cold().ctrl_retries, 6);
        if (now - flow.cold().last_ctrl_send >= rto) {
          if (++flow.cold().ctrl_retries > config.max_handshake_retries) {
            ReleaseFlow(id, flow);
            still_pending = false;
          } else {
            service_->flow_trace().Record(now, id, FlowEventType::kHandshakeRetransmit, 3);
            SendFin(flow);
          }
        }
        break;
      }
      case ConnState::kFinWait2:
        break;  // Waiting for the peer's FIN; no retransmission needed.
      case ConnState::kTimeWait: {
        if (now - flow.cold().timewait_start >= kTimeWait) {
          ReleaseFlow(id, flow);
          still_pending = false;
        }
        break;
      }
      case ConnState::kFreed:
        still_pending = false;
        break;
    }
    // Re-look the flow up: ReleaseFlow above frees it, leaving `fp` dangling.
    Flow* cur = service_->flow_by_id(id);
    if (cur == nullptr || cur->cstate == ConnState::kFreed) {
      continue;
    }
    if (still_pending) {
      pending_next_.push_back(id);
    } else {
      cur->cold().in_pending = false;
    }
  }
  pending_.swap(pending_next_);
  pending_next_.clear();
}

void SlowPath::MonitorCores() {
  const int max_cores = service_->max_cores();
  if (busy_snapshot_.empty()) {
    busy_snapshot_.resize(static_cast<size_t>(max_cores), 0);
  }
  const TimeNs window = service_->config().monitor_interval;
  const int active = service_->active_cores();

  double idle_total = 0;
  for (int i = 0; i < active; ++i) {
    Core* core = service_->fastpath_cpu(i);
    const TimeNs busy = core->busy_ns() - busy_snapshot_[i];
    const double util =
        std::clamp(static_cast<double>(busy) / static_cast<double>(window), 0.0, 1.0);
    idle_total += 1.0 - util;
  }
  for (int i = 0; i < max_cores; ++i) {
    busy_snapshot_[i] = service_->fastpath_cpu(i)->busy_ns();
  }

  if (idle_total > kIdleRemoveThreshold && active > 1) {
    service_->SetActiveCores(active - 1);
  } else if (idle_total < kIdleAddThreshold && active < max_cores) {
    service_->SetActiveCores(active + 1);
  }
}

}  // namespace tas
