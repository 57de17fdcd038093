// EngineStack: the baseline TCP stacks (Linux / IX / mTCP models), built on
// the full TCP engine (src/tcp/engine) over the simulated NIC.
//
// One implementation, three architectures, selected by configuration:
//  * Linux  — monolithic in-kernel stack: stack work shares the application
//    cores, heavy per-op costs (syscalls, socket layer), softirq/scheduler
//    wakeup latency, large per-connection state (cache model), window DCTCP,
//    full reassembly + SACK.
//  * IX     — protected kernel bypass: run-to-completion on the app cores,
//    small per-op costs, no wakeup latency, libevent-style API (no POSIX
//    sockets), per-connection state still sizable (cache model).
//  * mTCP   — user-level stack on DEDICATED stack cores with BATCHED event
//    hand-off to application cores (throughput via batching, latency cost).
//
// App events reach the application through one AppEventLoop per app core
// (src/cpu/app_event_loop.h), the same loop libTAS drains its context queues
// with. On shared-core stacks (Linux, IX) a connection's app core is its RSS
// stack core, and the core runs to completion: an RX burst's app events are
// dispatched before the core pops its next burst.
//
// The factories at the bottom encode the paper-calibrated parameters.
#ifndef SRC_BASELINE_ENGINE_STACK_H_
#define SRC_BASELINE_ENGINE_STACK_H_

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/baseline/stack_iface.h"
#include "src/cpu/app_event_loop.h"
#include "src/cpu/core.h"
#include "src/cpu/cost_model.h"
#include "src/nic/nic.h"
#include "src/tcp/engine.h"
#include "src/util/fifo.h"
#include "src/util/port_table.h"
#include "src/util/rng.h"

namespace tas {

struct EngineStackConfig {
  // Cores the stack charges protocol work on. 0 = share the app cores
  // (Linux, IX); >0 = dedicated stack cores (mTCP).
  int stack_cores = 0;
  const StackCostModel* costs = &LinuxCostModel();
  TcpConfig tcp;
  // Scheduler/softirq wakeup latency added to each app dispatch (Linux).
  TimeNs wakeup_latency = 0;
  // App-event hand-off (AppEventLoop): a dispatch takes up to `event_batch`
  // events; with `batch_timeout` > 0 the loop waits until `event_batch`
  // events are queued or `batch_timeout` has passed (mTCP's batching).
  size_t event_batch = 16;
  TimeNs batch_timeout = 0;
};

class EngineStack : public Stack, public TcpEngineHost {
 public:
  EngineStack(Simulator* sim, HostPort* port, std::vector<Core*> app_cores,
              const EngineStackConfig& config);
  ~EngineStack() override;

  // --- Stack interface -------------------------------------------------------
  void SetHandler(AppHandler* handler) override { handler_ = handler; }
  void Listen(uint16_t port) override;
  ConnId Connect(IpAddr dst_ip, uint16_t dst_port) override;
  size_t Send(ConnId conn, const uint8_t* data, size_t len) override;
  size_t Recv(ConnId conn, uint8_t* data, size_t len) override;
  size_t RecvAvailable(ConnId conn) const override;
  size_t SendSpace(ConnId conn) const override;
  void Close(ConnId conn) override;
  void ChargeApp(ConnId conn, uint64_t cycles) override;
  IpAddr local_ip() const override { return nic_->ip(); }

  // --- Introspection ---------------------------------------------------------
  SimNic* nic() { return nic_.get(); }
  size_t num_connections() const { return conns_.size(); }
  Core* stack_core(size_t i) { return stack_cores_[i]; }
  size_t num_stack_cores() const { return stack_cores_.size(); }
  TcpConnection* connection(ConnId conn);
  // Local-port use counts and the ephemeral cursor active opens draw from.
  PortTable& ports() { return ports_; }

 private:
  struct ConnEntry {
    std::unique_ptr<TcpConnection> tcp;
    size_t app_core = 0;    // Index into app_cores_.
    size_t stack_core = 0;  // Index into stack_cores_.
    bool passive = false;
  };

  struct PendingEvent {
    enum class Kind { kData, kSendSpace, kConnected, kAccepted, kRemoteClosed, kClosed };
    Kind kind;
    ConnId conn;
    size_t bytes = 0;
    bool ok = true;
    uint16_t port = 0;
    // Send-space and close notices are a bookkeeping read; the rest pay the
    // receive API.
    bool cheap() const { return kind == Kind::kSendSpace || kind == Kind::kClosed; }
  };

  // --- TcpEngineHost ---------------------------------------------------------
  void EmitPacket(TcpConnection* conn, PacketPtr pkt) override;
  void OnConnected(TcpConnection* conn) override;
  void OnConnectFailed(TcpConnection* conn) override;
  void OnDataAvailable(TcpConnection* conn, size_t bytes) override;
  void OnSendSpace(TcpConnection* conn, size_t bytes) override;
  void OnRemoteClose(TcpConnection* conn) override;
  void OnClosed(TcpConnection* conn) override;

  void DrainRxQueue(int queue);
  void HandlePacket(int queue, PacketPtr pkt);
  // Queues `event` for its app core's loop; an RX burst wakes the loops
  // once, when it has retired.
  void RaiseEvent(size_t app_core, const PendingEvent& event);
  void DispatchBatch(const std::vector<PendingEvent>& batch);
  void DispatchEvent(const PendingEvent& event);
  void FlushTx();
  ConnEntry* Entry(ConnId conn);
  const ConnEntry* Entry(ConnId conn) const;
  ConnId IdOf(TcpConnection* conn) const { return conn->opaque; }
  uint64_t CacheExtraPerPacket() const;

  Simulator* sim_;
  EngineStackConfig config_;
  std::unique_ptr<SimNic> nic_;
  std::vector<Core*> app_cores_;
  std::vector<std::unique_ptr<Core>> owned_stack_cores_;
  std::vector<Core*> stack_cores_;  // Aliases app_cores_ or owned cores.
  bool shared_cores_ = false;       // Stack work runs on the app cores.
  AppHandler* handler_ = nullptr;

  std::unordered_map<ConnId, ConnEntry> conns_;
  std::unordered_map<FlowKey, ConnId, FlowKeyHash> demux_;
  std::unordered_set<uint16_t> listeners_;
  PortTable ports_;
  ConnId next_conn_ = 1;
  size_t next_app_core_rr_ = 0;

  // Per app core: the events raised for it and the loop that drains them.
  std::vector<Fifo<PendingEvent>> app_events_;
  std::vector<std::unique_ptr<AppEventLoop<PendingEvent>>> app_loops_;

  // Per-NIC-queue RX burst state (gathered by DrainRxQueue, retired by one
  // aggregated event). Buffers keep capacity across bursts.
  struct RxQueueState {
    std::vector<PacketPtr> batch;
    bool draining = false;
  };
  std::vector<RxQueueState> rx_queues_;
  // Packets emitted while a burst retires (or, on shared cores, while an
  // app dispatch runs), flushed as one TransmitBurst.
  std::vector<PacketPtr> tx_batch_;
  bool tx_collect_ = false;
  bool rx_retiring_ = false;  // App events wait for the burst's end.
  Rng rng_;
};

// Paper-calibrated factories.
EngineStackConfig LinuxStackConfig();
EngineStackConfig IxStackConfig();
EngineStackConfig MtcpStackConfig(int stack_cores = 1);

}  // namespace tas

#endif  // SRC_BASELINE_ENGINE_STACK_H_
