#include "src/tas/fast_path.h"

#include <algorithm>

#include "src/sim/context.h"
#include "src/tas/slow_path.h"
#include "src/tas/steering.h"
#include "src/tcp/seq.h"
#include "src/trace/latency.h"

namespace tas {
namespace {

// Workload proportionality (paper §3.4): a core that polled idle this long
// blocks, and a blocked core pays the eventfd wake + reschedule cost before
// its next batch.
constexpr TimeNs kBlockTimeout = Ms(10);
constexpr TimeNs kWakeLatency = Us(5);

uint32_t NowUs(Simulator* sim) { return static_cast<uint32_t>(sim->Now() / kNsPerUs); }

}  // namespace

FastPathCore::FastPathCore(TasService* service, Core* cpu, int index)
    : service_(service), cpu_(cpu), index_(index) {}

void FastPathCore::EnqueueFlowTx(FlowId flow_id) {
  work_.push_back(WorkItem{WorkItem::Type::kFlowTx, flow_id, service_->sim()->Now()});
  work_hw_ = std::max(work_hw_, work_.size());
  MaybeRun();
}

void FastPathCore::EnqueueWindowUpdate(FlowId flow_id) {
  work_.push_back(WorkItem{WorkItem::Type::kWindowUpdate, flow_id, service_->sim()->Now()});
  work_hw_ = std::max(work_hw_, work_.size());
  MaybeRun();
}

void FastPathCore::NotifyRx() { MaybeRun(); }

bool FastPathCore::HasWork() const {
  return !service_->nic()->RxEmpty(index_) || !work_.empty();
}

void FastPathCore::MaybeRun() {
  if (busy_ || !HasWork()) {
    return;
  }
  block_timer_.Cancel();
  if (blocked_) {
    // Blocked cores are woken via kernel notification (eventfd): pay the
    // wake latency before the polling loop resumes (paper §3.4).
    blocked_ = false;
    busy_ = true;
    service_->sim()->After(kWakeLatency, [this] {
      busy_ = false;
      MaybeRun();
    });
    return;
  }
  RunOne();
}

void FastPathCore::RunOne() {
  Simulator* sim = service_->sim();
  const StackCostModel& costs = *service_->config().costs;
  const size_t budget =
      static_cast<size_t>(std::max(1, service_->config().rx_batch_size));

  // Gather a burst: NIC RX has priority, queued TX/command work fills the
  // remaining budget. Each item is charged individually — the core
  // serializes charges, so per-item completion times match serial dispatch
  // exactly — but the whole batch retires with ONE aggregated simulator
  // event instead of one per item (paper §3.1: DPDK-style batching).
  TAS_DCHECK(batch_rx_.empty());
  const size_t nrx = service_->nic()->PopRxBurst(index_, budget, &batch_rx_);
  batch_dispatch_ = sim->Now();
  TimeNs done = 0;
  for (const PacketPtr& pkt : batch_rx_) {
    const uint64_t tcp_cycles =
        costs.rx_tcp + service_->ExtraCacheCyclesPerPacket() +
        static_cast<uint64_t>(costs.copy_cycles_per_byte *
                              static_cast<double>(pkt->payload.size()));
    cpu_->Charge(CpuModule::kDriver, costs.rx_driver);
    done = cpu_->Charge(CpuModule::kTcp, tcp_cycles);
  }

  batch_work_.clear();
  while (nrx + batch_work_.size() < budget && !work_.empty()) {
    const WorkItem item = work_.front();
    work_.pop_front();
    uint64_t tcp_cycles = 0;
    if (item.type == WorkItem::Type::kFlowTx) {
      Flow* flow = service_->flow_by_id(item.flow);
      uint64_t len = 0;
      if (flow != nullptr) {
        len = std::min<uint64_t>(flow->TxAvailable(), flow->mss);
      }
      tcp_cycles = costs.tx_tcp + service_->ExtraCacheCyclesPerPacket() +
                   static_cast<uint64_t>(costs.copy_cycles_per_byte * static_cast<double>(len));
      cpu_->Charge(CpuModule::kDriver, costs.tx_driver);
    } else {
      tcp_cycles = costs.tx_ack_cycles;  // Pure window-update ACK.
    }
    done = cpu_->Charge(CpuModule::kTcp, tcp_cycles);
    batch_work_.push_back(item);
  }

  if (nrx == 0 && batch_work_.empty()) {
    // No work: arm the blocking timer.
    idle_since_ = sim->Now();
    if (service_->config().dynamic_cores) {
      block_timer_.Cancel();
      block_timer_ = sim->After(kBlockTimeout, [this] {
        if (!busy_ && !HasWork()) {
          blocked_ = true;
        }
      });
    }
    return;
  }

  ++batches_;
  batch_items_ += nrx + batch_work_.size();
  rx_occupancy_[nrx == 0 ? 0
                : nrx <= 2 ? nrx
                : nrx <= 4 ? 3
                : nrx <= 8 ? 4
                           : 5]++;
  busy_ = true;
  sim->At(done, [this] { CloseBatch(); });
}

void FastPathCore::CloseBatch() {
  // busy_ stays true while the batch retires: nested MaybeRun calls from
  // processing (HandleAck -> ScheduleFlowTx -> EnqueueFlowTx) must not
  // re-enter RunOne and clobber the batch buffers. Work enqueued here lands
  // in work_ and is gathered by the next dispatch at this same timestamp.
  // RX-before-TX priority holds within the batch: packets were gathered
  // first and are processed first.
  const uint16_t num_ctx = service_->num_contexts();
  for (uint16_t c = 0; c < num_ctx; ++c) {
    service_->context(c)->BeginNotifyDefer();
  }
  const uint64_t retiring = batch_rx_.size() + batch_work_.size();
  in_batch_ = true;
  for (PacketPtr& pkt : batch_rx_) {
    ProcessPacket(std::move(pkt));
  }
  batch_rx_.clear();
  for (const WorkItem& item : batch_work_) {
    if (item.type == WorkItem::Type::kFlowTx) {
      ProcessFlowTx(item.flow, item.enqueued_at);
    } else {
      SendWindowUpdate(item.flow, item.enqueued_at);
    }
  }
  batch_work_.clear();
  in_batch_ = false;
  if (!batch_tx_.empty()) {
    service_->nic()->TransmitBurst(batch_tx_.data(), batch_tx_.size());
    batch_tx_.clear();
  }
  // One doorbell per context per batch (libTAS queue-doorbell coalescing).
  for (uint16_t c = 0; c < num_ctx; ++c) {
    service_->context(c)->EndNotifyDefer();
  }
  items_processed_ += retiring;
  busy_ = false;
  // Batch retirement is the quiesce clock tick: draining flow groups whose
  // source is this core may now be ready to flip.
  service_->steering()->OnCoreProgress(index_);
  MaybeRun();
}

void FastPathCore::ProcessPacket(PacketPtr pkt) {
  const FlowKey key{pkt->tcp.dst_port, pkt->ip.src, pkt->tcp.src_port};
  const FlowId id = service_->LookupFlowId(key);
  Flow* flow = id == kInvalidFlow ? nullptr : service_->flow_by_id(id);

  // Common case per direction: any segment without SYN/FIN/RST while our
  // direction is open, and payload while only the peer's is (FIN_WAIT_1/2).
  constexpr uint8_t kExceptionFlags = TcpFlags::kSyn | TcpFlags::kFin | TcpFlags::kRst;
  if (flow == nullptr || (pkt->tcp.flags & kExceptionFlags) != 0 ||
      !(flow->FastPathEligible() || (!pkt->payload.empty() && flow->RxFastPathEligible()))) {
    TasStats& stats = service_->mutable_stats();
    stats.exceptions++;
    // No flow (a SYN for a listener, a segment for a freed flow) counts as kFreed.
    stats.exceptions_by_state[static_cast<size_t>(flow == nullptr ? ConnState::kFreed
                                                                  : flow->cstate)]++;
    if (LatencyTracer* lt = service_->context().latency_sink()) {
      // The exception path leaves the measured pipeline (and the packet may
      // come back via InjectPacket); close the record and untrack the packet
      // so later stamps don't count as stale.
      lt->Abandon(pkt->lat_id);
      pkt->lat_id = 0;
    }
    service_->slow_path()->EnqueueException(std::move(pkt));
    return;
  }

  service_->mutable_stats().fastpath_rx_packets++;
  if (service_->CoreForFlow(*flow) != index_) {
    service_->mutable_stats().cross_core_packets++;
  }
  FastPathRx(id, *flow, *pkt);
  if (LatencyTracer* lt = service_->context().latency_sink()) {
    // End of the journey: RX processing (and payload delivery to the app
    // context) completes at the batch horizon.
    lt->Finish(pkt->lat_id, LatencyStage::kFpRx, service_->sim()->Now());
  }
}

void FastPathCore::FastPathRx(FlowId flow_id, Flow& flow, const Packet& pkt) {
  if (pkt.tcp.has_timestamps) {
    flow.ts_echo = pkt.tcp.ts_val;
  }
  const bool had_payload = !pkt.payload.empty();
  const uint32_t received = had_payload ? HandlePayload(flow_id, flow, pkt) : 0;
  const uint32_t acked = pkt.tcp.ack_flag() ? HandleAck(flow_id, flow, pkt) : 0;
  if (received > 0 || acked > 0) {
    // One context-queue entry per segment carries both counts (TAS's
    // connection update), so the app reads it once.
    service_->context(flow.fs.context)
        ->PushEvent(AppEvent{AppEventType::kData, flow.fs.opaque, received, acked});
  }
  if (pkt.tcp.ack_flag() && flow.cstate == ConnState::kFinWait1 &&
      pkt.tcp.ack == flow.AckSeq()) {
    service_->slow_path()->FinAcked(flow_id, flow);  // Data acking our FIN.
  }
  if (had_payload) {
    // Fast path ACKs every received data packet (paper §3.1: important for
    // security, ECN feedback, and RTT timestamps).
    SendAck(flow_id, flow, pkt.ip.ecn == Ecn::kCe);
  }
}

uint32_t FastPathCore::HandlePayload(FlowId flow_id, Flow& flow, const Packet& pkt) {
  FlowState& fs = flow.fs;
  const uint32_t seq = pkt.tcp.seq;
  const uint32_t len = static_cast<uint32_t>(pkt.payload.size());
  TasStats& stats = service_->mutable_stats();
  FlowTracer& trace = service_->flow_trace();
  const TimeNs now = service_->sim()->Now();

  if (seq == fs.ack) {
    // Common case: in-order arrival.
    if (len > flow.RxFree()) {
      // Payload buffer full: drop; TCP flow control makes this rare.
      stats.rx_buffer_drops++;
      trace.Record(now, flow_id, FlowEventType::kRxBufferDrop, seq, len);
      return 0;
    }
    const uint32_t old_ack = fs.ack;
    flow.CopyIntoRx(seq, pkt.payload.data(), len);
    fs.ack += len;
    fs.rx_head += len;
    // Did the new data close the gap to the tracked out-of-order interval?
    if (fs.ooo_len > 0 && SeqLe(fs.ooo_start, fs.ack)) {
      const uint32_t ooo_end = fs.ooo_start + fs.ooo_len;
      if (SeqGt(ooo_end, fs.ack)) {
        const uint32_t extra = ooo_end - fs.ack;
        fs.ack += extra;
        fs.rx_head += extra;
      }
      fs.ooo_len = 0;
      fs.ooo_start = 0;
    }
    const uint32_t advanced = fs.ack - old_ack;
    trace.Record(now, flow_id, FlowEventType::kDataRx, seq, len, advanced);
    return advanced;
  }

  if (SeqGt(seq, fs.ack)) {
    // Out-of-order arrival: exception handled on the fast path (§3.1).
    if (service_->config().ooo_mode == OooMode::kGoBackN) {
      stats.ooo_dropped++;
      trace.Record(now, flow_id, FlowEventType::kOooDrop, seq, len);
      return 0;
    }
    const uint32_t end = seq + len;
    if (end - fs.ack > flow.RxFree()) {
      stats.ooo_dropped++;  // Does not fit in the receive buffer.
      trace.Record(now, flow_id, FlowEventType::kOooDrop, seq, len);
      return 0;
    }
    if (fs.ooo_len == 0) {
      fs.ooo_start = seq;
      fs.ooo_len = len;
      flow.CopyIntoRx(seq, pkt.payload.data(), len);
      stats.ooo_accepted++;
      trace.Record(now, flow_id, FlowEventType::kOooAccept, seq, len, fs.ooo_len);
    } else {
      // Copy out of the packed struct: a ternary over the raw field yields a
      // misaligned lvalue.
      const uint32_t ooo_start = fs.ooo_start;
      const uint32_t cur_end = ooo_start + fs.ooo_len;
      // Same-interval rule: overlap or abut only.
      if (SeqLe(seq, cur_end) && SeqGe(end, ooo_start)) {
        const uint32_t new_start = SeqLt(seq, ooo_start) ? seq : ooo_start;
        const uint32_t new_end = SeqGt(end, cur_end) ? end : cur_end;
        fs.ooo_start = new_start;
        fs.ooo_len = new_end - new_start;
        flow.CopyIntoRx(seq, pkt.payload.data(), len);
        stats.ooo_accepted++;
        trace.Record(now, flow_id, FlowEventType::kOooAccept, seq, len, fs.ooo_len);
      } else {
        stats.ooo_dropped++;
        trace.Record(now, flow_id, FlowEventType::kOooDrop, seq, len);
      }
    }
    return 0;  // The ACK we send restates fs.ack -> duplicate ACK at sender.
  }

  // Old duplicate; re-ACK.
  trace.Record(now, flow_id, FlowEventType::kDataRx, seq, len, 0);
  return 0;
}

uint32_t FastPathCore::HandleAck(FlowId flow_id, Flow& flow, const Packet& pkt) {
  FlowState& fs = flow.fs;
  FlowTracer& trace = service_->flow_trace();
  const TimeNs now = service_->sim()->Now();
  const uint64_t old_window = PeerWindowBytes(fs);
  SetPeerWindowBytes(fs, static_cast<uint64_t>(pkt.tcp.window) << flow.peer_wscale);

  // Valid cumulative ACKs fall within the app-written region (tx_tail,
  // tx_head]. After a retransmission reset (tx_sent rewound to 0) the peer
  // may legitimately ack bytes beyond tx_tail + tx_sent from segments sent
  // before the reset.
  const uint32_t acked = pkt.tcp.ack - fs.tx_tail;
  if (acked > 0 && acked <= flow.TxQueued()) {
    fs.tx_tail += acked;
    fs.tx_sent = acked >= fs.tx_sent ? 0 : fs.tx_sent - acked;
    if (SeqLt(fs.seq, fs.tx_tail)) {
      fs.seq = fs.tx_tail;  // Never send bytes already acknowledged.
    }
    fs.cnt_ackb += acked;
    if (pkt.tcp.ece()) {
      fs.cnt_ecnb += acked;
    }
    fs.dupack_cnt = 0;
    if (pkt.tcp.has_timestamps && pkt.tcp.ts_ecr != 0) {
      const uint32_t sample_us = NowUs(service_->sim()) - pkt.tcp.ts_ecr;
      if (sample_us < 10'000'000) {
        fs.rtt_est = fs.rtt_est == 0 ? sample_us : fs.rtt_est - fs.rtt_est / 8 + sample_us / 8;
      }
    }
    trace.Record(now, flow_id, FlowEventType::kAckRx, pkt.tcp.ack, acked,
                 pkt.tcp.ece() ? 1 : 0);
    service_->MarkFlowDirty(flow_id);
    if (flow.TxAvailable() > 0) {
      service_->ScheduleFlowTx(flow_id, flow.next_tx_time);
    }
    return acked;
  }

  if (acked == 0 && (fs.tx_sent > 0) && pkt.payload.empty()) {
    // Duplicate ACK. Three trigger fast recovery: reset the sender state as
    // if the unacked segments had not been sent (paper §3.1, exception 1).
    trace.Record(now, flow_id, FlowEventType::kDupAck, fs.dupack_cnt + 1u);
    if (++fs.dupack_cnt >= 3) {
      fs.dupack_cnt = 0;
      if (fs.cnt_frexmits < 0xFF) {
        fs.cnt_frexmits++;
      }
      service_->mutable_stats().fast_retransmits++;
      trace.Record(now, flow_id, FlowEventType::kFastRetransmit, fs.tx_tail);
      fs.seq = fs.tx_tail;
      fs.tx_sent = 0;
      service_->MarkFlowDirty(flow_id);
      service_->ScheduleFlowTx(flow_id, 0);
    }
  }
  if (acked == 0 && PeerWindowBytes(fs) > old_window && flow.TxAvailable() > 0) {
    // A window update: the sender may have stopped on the closed window.
    service_->ScheduleFlowTx(flow_id, flow.next_tx_time);
  }
  return 0;
}

void FastPathCore::SendAck(FlowId flow_id, Flow& flow, bool ecn_echo, TimeNs enqueued_at) {
  FlowState& fs = flow.fs;
  uint8_t flags = TcpFlags::kAck;
  if (ecn_echo) {
    flags |= TcpFlags::kEce;
  }
  auto ack = service_->FlowSegment(fs, flow.AckSeq(), fs.ack, flags);
  ack->tcp.window = flow.WindowField();
  ack->tcp.has_timestamps = true;
  ack->tcp.ts_val = NowUs(service_->sim());
  ack->tcp.ts_ecr = flow.ts_echo;
  ack->enqueued_at = service_->sim()->Now();
  OpenTxLatencyRecord(ack.get(), enqueued_at);
  service_->mutable_stats().fastpath_acks_sent++;
  service_->flow_trace().Record(service_->sim()->Now(), flow_id, FlowEventType::kAckTx,
                                fs.ack, ecn_echo ? 1 : 0);
  EmitPacket(std::move(ack));
}

void FastPathCore::OpenTxLatencyRecord(Packet* pkt, TimeNs enqueued_at) {
  LatencyTracer* lt = service_->context().latency_sink();
  if (lt == nullptr) {
    return;
  }
  const TimeNs now = service_->sim()->Now();
  if (enqueued_at == kNoEnqueue) {
    // RX-triggered (ACKs): born at the batch horizon, no queue wait.
    pkt->lat_id = lt->Begin(now);
    return;
  }
  // Work-queue origin: wait in work_ until the gather instant is ctx-queue
  // time; gather -> batch horizon is fast-path TX service.
  const uint64_t id = lt->Begin(enqueued_at);
  lt->Stamp(id, LatencyStage::kCtxQueue, std::max(enqueued_at, batch_dispatch_));
  lt->Stamp(id, LatencyStage::kFpTx, now);
  pkt->lat_id = id;
}

void FastPathCore::EmitPacket(PacketPtr pkt) {
  if (in_batch_) {
    batch_tx_.push_back(std::move(pkt));
  } else {
    service_->nic()->Transmit(std::move(pkt));
  }
}

PacketPtr FastPathCore::BuildDataPacket(Flow& flow, uint32_t wire_seq, uint32_t len) {
  FlowState& fs = flow.fs;
  auto pkt = service_->FlowSegment(fs, wire_seq, fs.ack, TcpFlags::kAck | TcpFlags::kPsh);
  // Append the payload in place: the pooled packet's buffer retains
  // capacity, so this allocates nothing in steady state.
  flow.AppendFromTx(wire_seq, len, &pkt->payload);
  pkt->ip.ecn = Ecn::kEct0;
  pkt->tcp.window = flow.WindowField();
  pkt->tcp.has_timestamps = true;
  pkt->tcp.ts_val = NowUs(service_->sim());
  pkt->tcp.ts_ecr = flow.ts_echo;
  pkt->enqueued_at = service_->sim()->Now();
  return pkt;
}

void FastPathCore::ProcessFlowTx(FlowId flow_id, TimeNs enqueued_at) {
  Flow* flow = service_->flow_by_id(flow_id);
  if (flow == nullptr) {
    return;
  }
  flow->tx_pending = false;
  if (!flow->FastPathEligible()) {
    return;
  }
  FlowState& fs = flow->fs;
  const uint32_t len = flow->NextSegmentLen();
  if (len == 0) {
    // Nothing unsent (the app's next write re-schedules us) or the window is
    // full (the next ACK does).
    return;
  }

  // Rate enforcement: the per-flow bucket must hold credit for the segment.
  const TimeNs now = service_->sim()->Now();
  if (flow->RefillTokens(now, flow->BurstBytes()) < len) {
    // Not enough credit: retry when the bucket refills.
    flow->next_tx_time = now + flow->CreditWait(len);
    service_->ScheduleFlowTx(flow_id, flow->next_tx_time);
    return;
  }
  flow->tx_tokens -= len;

  const uint32_t wire_seq = fs.seq;
  auto pkt = BuildDataPacket(*flow, wire_seq, len);
  OpenTxLatencyRecord(pkt.get(), enqueued_at);
  service_->mutable_stats().fastpath_tx_packets++;
  EmitPacket(std::move(pkt));
  fs.seq += len;
  fs.tx_sent += len;
  service_->flow_trace().Record(now, flow_id, FlowEventType::kDataTx, wire_seq, len,
                                fs.tx_sent);
  service_->MarkFlowDirty(flow_id);
  flow->next_tx_time = now;
  if (flow->TxAvailable() > 0) {
    service_->ScheduleFlowTx(flow_id, now);
  }
}

void FastPathCore::SendWindowUpdate(FlowId flow_id, TimeNs enqueued_at) {
  Flow* flow = service_->flow_by_id(flow_id);
  if (flow == nullptr || !flow->RxFastPathEligible()) {
    return;
  }
  SendAck(flow_id, *flow, false, enqueued_at);
}

}  // namespace tas
