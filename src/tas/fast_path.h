// One TAS fast-path core (paper §3.1): a linear packet-processing pipeline
// that polls its NIC RX queue and a work queue of transmit/command items,
// charges cycles on its simulated core, and blocks after an idle timeout
// (woken by NIC/queue notifications — the workload-proportionality
// mechanism of §3.4).
//
// Fast-path duties implemented here, straight from the paper:
//  * in-order receive: deposit payload into the per-flow RX buffer, advance
//    ack, notify the app context, generate an ACK (with ECN echo and
//    timestamps);
//  * drop when the payload buffer is full;
//  * track ONE out-of-order interval; accept only segments extending it;
//    other out-of-order arrivals are dropped and re-ACKed (triggering fast
//    retransmit at the peer);
//  * count duplicate ACKs and trigger fast recovery after three by rewinding
//    tx_sent (go-back-N resend), bumping cnt_frexmits for the slow path;
//  * transmit: segment payload from the TX buffer at the slow-path-set rate
//    (the per-flow bucket; a segment short of credit waits on the flow's
//    pacing timer), reclaim the buffer on ACKs, resume on an ACK that only
//    widens the peer's window, and hand flow statistics to the slow path;
//  * keep a closing flow's data here: payload into a FIN_WAIT_1/2 flow (the
//    peer's direction is still open) takes the same RX path, its ACKs carry
//    seq = FIN + 1, and one that acks our FIN applies FIN_WAIT_1 -> 2;
//  * forward everything else (SYN/FIN/RST, unknown flows, payload-less
//    segments of closing flows, flows in handshake or LAST_ACK/TIME_WAIT) to
//    the slow path as exceptions.
#ifndef SRC_TAS_FAST_PATH_H_
#define SRC_TAS_FAST_PATH_H_

#include <array>
#include <vector>

#include "src/tas/flow.h"
#include "src/tas/service.h"
#include "src/util/fifo.h"

namespace tas {

class FastPathCore {
 public:
  FastPathCore(TasService* service, Core* cpu, int index);

  int index() const { return index_; }
  Core* cpu() { return cpu_; }
  bool blocked() const { return blocked_; }

  // Work injection.
  void EnqueueFlowTx(FlowId flow_id);
  void EnqueueWindowUpdate(FlowId flow_id);
  void NotifyRx();  // NIC enqueued a packet on this core's queue.

  // Kicks the service loop (idempotent).
  void MaybeRun();

  // Slow-path hand-back: process a packet that raced establishment. The CPU
  // cost was already charged by the slow path's exception handling.
  void InjectPacket(PacketPtr pkt) { ProcessPacket(std::move(pkt)); }

  // Batch observability (aggregated across cores by TasService's metrics).
  // RX occupancy histogram buckets: 0, 1, 2, 3-4, 5-8, 9+ packets gathered.
  static constexpr size_t kOccBuckets = 6;
  const std::array<uint64_t, kOccBuckets>& rx_occupancy() const { return rx_occupancy_; }
  uint64_t batches() const { return batches_; }
  uint64_t batch_items() const { return batch_items_; }
  // Items RETIRED (batch fully processed), as opposed to gathered: the
  // monotonic progress clock flow-group quiesce drains compare against.
  uint64_t items_processed() const { return items_processed_; }
  // Work currently in flight on this core: queued + gathered-but-unretired.
  // A flow group whose source core shows zero here can migrate immediately.
  uint64_t queued_items() const {
    return work_.size() + batch_rx_.size() + batch_work_.size();
  }
  // High-water occupancy of the TX/command work queue (latency anatomy).
  size_t work_queue_hw() const { return work_hw_; }

 private:
  struct WorkItem {
    enum class Type { kFlowTx, kWindowUpdate } type;
    FlowId flow = kInvalidFlow;
    TimeNs enqueued_at = 0;  // When the item entered work_ (ctx-queue stage).
  };

  bool HasWork() const;
  void RunOne();
  void CloseBatch();
  void ProcessPacket(PacketPtr pkt);
  // enqueued_at: when the originating work item entered work_ (charges the
  // ctx-queue latency stage); kNoEnqueue for packets not born from the work
  // queue (RX-triggered ACKs).
  static constexpr TimeNs kNoEnqueue = -1;
  void ProcessFlowTx(FlowId flow_id, TimeNs enqueued_at);
  void SendWindowUpdate(FlowId flow_id, TimeNs enqueued_at);
  // Routes outgoing packets: collected for the batch-close TransmitBurst
  // while a batch retires, transmitted directly otherwise.
  void EmitPacket(PacketPtr pkt);

  // Receive-side helpers.
  // Posts one kData entry per segment that delivered bytes or freed send
  // space, after the ACK and before a FIN_WAIT_1 flow's FIN is acked.
  void FastPathRx(FlowId flow_id, Flow& flow, const Packet& pkt);
  // HandleAck returns the send bytes the segment newly acknowledged,
  // HandlePayload the bytes it delivered in order to the RX buffer.
  uint32_t HandleAck(FlowId flow_id, Flow& flow, const Packet& pkt);
  uint32_t HandlePayload(FlowId flow_id, Flow& flow, const Packet& pkt);
  void SendAck(FlowId flow_id, Flow& flow, bool ecn_echo, TimeNs enqueued_at = kNoEnqueue);
  PacketPtr BuildDataPacket(Flow& flow, uint32_t wire_seq, uint32_t len);
  // Opens a latency record for an outgoing packet and charges the ctx-queue
  // and fp-tx stages (no-op when tracing is off).
  void OpenTxLatencyRecord(Packet* pkt, TimeNs enqueued_at);

  TasService* service_;
  Core* cpu_;
  int index_;
  Fifo<WorkItem> work_;
  bool busy_ = false;
  bool blocked_ = false;
  TimeNs idle_since_ = 0;
  EventHandle block_timer_;

  // In-flight batch (gathered by RunOne, retired by CloseBatch). The buffers
  // keep their capacity across batches, so steady state allocates nothing.
  std::vector<PacketPtr> batch_rx_;
  std::vector<WorkItem> batch_work_;
  std::vector<PacketPtr> batch_tx_;
  bool in_batch_ = false;
  // Gather instant of the in-flight batch: the boundary between an item's
  // ctx-queue wait and its fast-path service time.
  TimeNs batch_dispatch_ = 0;
  std::array<uint64_t, kOccBuckets> rx_occupancy_{};
  uint64_t batches_ = 0;
  uint64_t batch_items_ = 0;
  uint64_t items_processed_ = 0;
  size_t work_hw_ = 0;
};

}  // namespace tas

#endif  // SRC_TAS_FAST_PATH_H_
