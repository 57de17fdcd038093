// The TAS slow path (paper §3.2): connection control (full TCP handshake and
// teardown), the congestion-control policy loop, retransmission timeouts,
// the TCP-stack/context registry, and the workload-proportionality core
// monitor (§3.4). Runs on its own (partially used) core; the fast path
// forwards everything non-common-case here as exceptions.
#ifndef SRC_TAS_SLOW_PATH_H_
#define SRC_TAS_SLOW_PATH_H_

#include <array>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/tas/flow.h"
#include "src/tas/service.h"
#include "src/util/fifo.h"

namespace tas {

class SlowPath {
 public:
  SlowPath(TasService* service, Core* cpu);
  ~SlowPath();

  // Starts the periodic congestion-control loop and the core monitor.
  void Start();

  Core* cpu() { return cpu_; }

  // --- The executor ----------------------------------------------------------
  // The slow-path core runs one work item at a time, never preempted: a
  // segment the fast path forwarded, or an app's connect or close command.
  // Each item is queued in its ExceptionClass; MaybeProcess serves the flow
  // class first and each class in arrival order, starts an item only when
  // the core is free, books the item's whole cost as one charge and applies
  // its effects when that charge ends.
  void EnqueueException(PacketPtr pkt);

  // Work items queued right now (both classes), and the deepest the queue
  // has ever been. The watchdog's slow-path overload SLO reads the depth
  // each check; the high-water mark lands in diagnostic bundles.
  size_t exception_depth() const { return work_[0].size() + work_[1].size(); }
  uint64_t exception_depth_hw() const { return exception_depth_hw_; }

  // --- Commands from libTAS (via TasService) ---------------------------------
  void CmdListen(uint16_t port, uint64_t opaque, uint16_t context);
  // Queued in the set-up class; the SYN or FIN leaves when the item's
  // connection set-up or teardown charge ends.
  void CmdConnect(FlowId flow_id);
  void CmdClose(FlowId flow_id);

  uint64_t control_iterations() const { return control_iterations_; }

  // FIN_WAIT_1 -> FIN_WAIT_2 (or TIME_WAIT once the peer's FIN is consumed)
  // on a segment without FIN that acks our FIN: frees the TX ring and
  // records the kConnState event. The fast path calls it for a payload
  // segment carrying the ack, the slow path for a payload-less one.
  void FinAcked(FlowId flow_id, Flow& flow);

 private:
  struct Listener {
    uint64_t opaque = 0;
    uint16_t context = 0;
  };
  enum class WorkKind : uint8_t { kSegment, kConnect, kClose };
  // One job of the slow-path core: a forwarded segment (`pkt`), or a
  // command on `flow`.
  struct WorkItem {
    WorkKind kind = WorkKind::kSegment;
    FlowId flow = kInvalidFlow;
    PacketPtr pkt;
    TimeNs enqueued = 0;
  };

  void Enqueue(ExceptionClass cls, WorkItem item);
  void MaybeProcess();
  // The item's whole cost in cycles, decided when it is dequeued.
  uint64_t ItemCycles(const WorkItem& item) const;
  // Applies the item's effects; runs when its charge ends.
  void RunItem(WorkItem item);
  void HandleException(PacketPtr pkt);
  void HandleSyn(const Packet& pkt);
  // Returns true if the packet should be re-injected into the fast path: it
  // is a common-case segment for a direction the fast path now carries
  // (payload that completed a handshake, or raced a state change).
  bool HandleFlowPacket(FlowId flow_id, Flow& flow, const Packet& pkt);
  void HandleFin(FlowId flow_id, Flow& flow, const Packet& pkt);

  void SendSyn(Flow& flow);
  void SendSynAck(Flow& flow);
  void SendFin(Flow& flow);
  void SendControlAck(Flow& flow);
  void Establish(FlowId flow_id, Flow& flow, bool from_listener);
  // Half-close notification (kConnFin): the peer's receive direction ended
  // but ours may keep transmitting. Terminal kConnClosed still follows from
  // NotifyClosed when the flow is released.
  void NotifyRemoteClosed(Flow& flow);
  void NotifyClosed(Flow& flow);
  void ReleaseFlow(FlowId flow_id, Flow& flow);
  void AddPending(FlowId flow_id, Flow& flow);
  void TrySendFin(FlowId flow_id, Flow& flow);

  void ControlLoop();
  void RunCongestionControl(FlowId flow_id, Flow& flow);
  void ScanPending();
  void MonitorCores();

  // Records a kConnState flow event for the flow's current state.
  void TraceState(FlowId flow_id, const Flow& flow);

  TasService* service_;
  Core* cpu_;
  std::array<Fifo<WorkItem>, kNumExceptionClasses> work_;  // By ExceptionClass.
  uint64_t exception_depth_hw_ = 0;
  // An item is in service, or the executor waits for the core to come free.
  bool busy_ = false;
  std::unordered_map<uint16_t, Listener> listeners_;
  std::vector<FlowId> pending_;  // Flows in handshake or teardown.
  // Spare halves of the control loop's two lists: ControlLoop swaps the
  // service's dirty list into dirty_scratch_ and ScanPending rebuilds
  // pending_ into pending_next_. Both keep their capacity across
  // iterations, so a steady flow population costs no allocation.
  std::vector<FlowId> dirty_scratch_;
  std::vector<FlowId> pending_next_;
  std::unique_ptr<PeriodicTask> cc_task_;
  std::unique_ptr<PeriodicTask> monitor_task_;
  std::vector<TimeNs> busy_snapshot_;
  uint64_t control_iterations_ = 0;
};

}  // namespace tas

#endif  // SRC_TAS_SLOW_PATH_H_
