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
  // The slow-path core runs one work item at a time: a segment the fast
  // path forwarded, an app's connect or close command, or one flow's
  // control-loop visit. Each item is queued in its ExceptionClass (visits
  // in the flow class); MaybeProcess serves the flow class first and each
  // class in arrival order, starts a charge only when the core is free and
  // applies an item's effects when its last charge ends. A flow-class item
  // is one charge. A set-up-class item is charged in steps of at most
  // kSetupStepCycles, and at each step boundary a forwarded segment next in
  // the flow class runs first; control visits wait for the item's last
  // step. Nothing else charges this core.
  void EnqueueException(PacketPtr pkt);

  // The largest step of a set-up item (a SYN that opens a flow, a connect,
  // a close): 4.76 us at 2.1 GHz, so a known flow's segment waits for at
  // most one step of set-up work. Chosen by a sweep on proxy_churn
  // (DESIGN.md §4): smaller steps cut its p50 further but add a simulator
  // event per step.
  static constexpr uint64_t kSetupStepCycles = 10'000;

  // Exceptions and commands queued right now (both classes; control visits
  // are not exceptions), and the deepest that count has ever been. The
  // watchdog's slow-path overload SLO reads the depth each check; the
  // high-water mark lands in diagnostic bundles.
  size_t exception_depth() const {
    return work_[0].size() + work_[1].size() - queued_visits_;
  }
  uint64_t exception_depth_hw() const { return exception_depth_hw_; }
  // Control-loop visits queued right now.
  size_t queued_visits() const { return queued_visits_; }

  // --- Commands from libTAS (via TasService) ---------------------------------
  void CmdListen(uint16_t port, uint64_t opaque, uint16_t context);
  // Queued in the set-up class; the SYN or FIN leaves when the item's
  // connection set-up or teardown charge ends.
  void CmdConnect(FlowId flow_id);
  void CmdClose(FlowId flow_id);

  // Control-loop visits run so far.
  uint64_t control_iterations() const { return control_iterations_; }
  // Set-up steps charged so far: one per set-up item of at most
  // kSetupStepCycles, more for a larger one.
  uint64_t setup_steps() const { return setup_steps_; }
  // Summed capacity of the control loop's lists: both halves of the pending
  // list, the service's dirty list and the work queues the visits wait in.
  // It stops growing once the flow population does.
  size_t control_list_capacity() const {
    return pending_.capacity() + pending_next_.capacity() +
           service_->dirty_flows().capacity() + work_[0].capacity() + work_[1].capacity();
  }

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
  enum class WorkKind : uint8_t { kSegment, kConnect, kClose, kControl };
  // One job of the slow-path core: a forwarded segment (`pkt`), or a
  // command or control-loop visit on `flow`.
  struct WorkItem {
    WorkKind kind = WorkKind::kSegment;
    FlowId flow = kInvalidFlow;
    PacketPtr pkt;
    TimeNs enqueued = 0;
  };

  void Enqueue(ExceptionClass cls, WorkItem item);
  void MaybeProcess();
  // Charges the next step of the set-up item in service; its last step
  // applies the item's effects.
  void ChargeSetupStep();
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

  // Sends the flow's SYN, SYN-ACK, FIN or bare ACK (`flags` picks which)
  // from its current state.
  void SendControl(Flow& flow, uint8_t flags);
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
  size_t queued_visits_ = 0;  // kControl items in work_.
  bool busy_ = false;          // A charge is running.
  // The set-up item in service, held outside work_ between its steps, with
  // its whole cost and the cycles charged so far.
  bool setup_in_service_ = false;
  WorkItem setup_item_;
  uint64_t setup_cycles_ = 0;
  uint64_t setup_charged_ = 0;
  uint64_t setup_steps_ = 0;
  std::unordered_map<uint16_t, Listener> listeners_;
  std::vector<FlowId> pending_;  // Flows in handshake or teardown.
  // Spare half of the pending list: ScanPending rebuilds pending_ into it,
  // and both keep their capacity across iterations, so a steady flow
  // population costs no allocation.
  std::vector<FlowId> pending_next_;
  std::unique_ptr<PeriodicTask> cc_task_;
  std::unique_ptr<PeriodicTask> monitor_task_;
  std::vector<TimeNs> busy_snapshot_;
  uint64_t control_iterations_ = 0;
};

}  // namespace tas

#endif  // SRC_TAS_SLOW_PATH_H_
