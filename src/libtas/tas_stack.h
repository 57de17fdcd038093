// libTAS: the untrusted per-application user-space stack (paper §3.3).
//
// Implements the Stack interface on top of TAS context queues and per-flow
// payload buffers. Two flavours, selected by the API cost model:
//  * POSIX sockets emulation ("TAS SO"): the default, applications remain
//    unmodified; costs from TasSocketsCostModel().
//  * low-level context-queue API ("TAS LL"): events pass straight from the
//    context RX queue to the application; costs from TasLowLevelCostModel().
//
// One context is allocated per application core ("typically stacks allocate
// one context per application thread for scalability", §3.3); connections
// are bound to the context — and therefore the application core — that
// created or accepted them.
#ifndef SRC_LIBTAS_TAS_STACK_H_
#define SRC_LIBTAS_TAS_STACK_H_

#include <memory>
#include <vector>

#include "src/baseline/stack_iface.h"
#include "src/cpu/app_event_loop.h"
#include "src/tas/service.h"

namespace tas {

class TasStack : public Stack {
 public:
  // `app_cores` are the CPU cores application callbacks execute on (owned by
  // the caller). `api_costs` selects sockets vs low-level pricing.
  TasStack(TasService* service, std::vector<Core*> app_cores,
           const StackCostModel* api_costs = &TasSocketsCostModel());
  ~TasStack() override;

  void SetHandler(AppHandler* handler) override { handler_ = handler; }
  void Listen(uint16_t port) override;
  ConnId Connect(IpAddr dst_ip, uint16_t dst_port) override;
  size_t Send(ConnId conn, const uint8_t* data, size_t len) override;
  size_t Recv(ConnId conn, uint8_t* data, size_t len) override;
  size_t RecvAvailable(ConnId conn) const override;
  size_t SendSpace(ConnId conn) const override;
  size_t Splice(ConnId from, ConnId to, size_t len) override;
  void Close(ConnId conn) override;
  void ChargeApp(ConnId conn, uint64_t cycles) override;
  IpAddr local_ip() const override { return service_->local_ip(); }

  TasService* service() { return service_; }
  size_t num_contexts() const { return contexts_.size(); }

 private:
  struct Conn {
    FlowId flow = kInvalidFlow;
    size_t context = 0;       // Index into contexts_ == app core index.
    size_t deliverable = 0;   // Bytes announced via kData, not yet Recv'd.
    // Half-close is per direction: tx_closed when the app called Close()
    // (no more Sends), rx_closed when the peer's FIN arrived (no more data).
    // The entry lives until the terminal kConnClosed event.
    bool tx_closed = false;
    bool rx_closed = false;
  };

  // A context-queue push deferred to the end of a batched dispatch.
  struct DeferredPush {
    size_t ctx_index = 0;  // Context whose TX queue receives `cmd`.
    TxCommand cmd;
  };

  struct Context {
    std::unique_ptr<AppContext> queues;
    uint16_t id = 0;       // TAS-side context id.
    Core* core = nullptr;  // App core this context's thread runs on.
    // Drains the context's RX queue onto `core` (src/cpu/app_event_loop.h).
    std::unique_ptr<AppEventLoop<AppEvent>> loop;
    // Pushes the handlers of this context's in-flight dispatch deferred,
    // flushed by one event at its final horizon; keeps its capacity too.
    std::vector<DeferredPush> deferred;
  };

  // Runs one batch the context's loop gathered, at its final horizon.
  void DispatchBatch(size_t context_index, const std::vector<AppEvent>& batch);
  void DispatchEvent(size_t context_index, const AppEvent& event);
  Conn* GetConn(ConnId id);
  const Conn* GetConn(ConnId id) const;
  // Adds (or replaces) the connection with id `conn.flow`.
  void AddConn(const Conn& conn);
  void EraseConn(ConnId id);
  // Pushes `cmd` onto context `ctx_index`'s TX queue at the app core's
  // current work horizon (post-charge). During a batched event dispatch the
  // push is deferred instead and flushed with the batch's others as ONE event
  // at its final horizon (the app thread rings its doorbells once per wakeup,
  // not once per callback).
  void AtCoreHorizon(Core* core, size_t ctx_index, const TxCommand& cmd);
  void FlushDeferred(size_t context_index);

  TasService* service_;
  const StackCostModel* costs_;
  AppHandler* handler_ = nullptr;
  std::vector<Context> contexts_;
  // Connections by flow-id slot (FlowSlotOf), dense because flow ids are
  // TasService slab indices; an entry is present when its `flow` equals the
  // id looked up, so a stale id reads as absent. The service frees a flow's
  // slot as it queues kConnClosed, and the slot may be reused before this
  // stack drains that event: the older connection then waits in
  // `displaced_` until its terminal event erases it.
  std::vector<Conn> conns_;
  std::vector<Conn> displaced_;
  size_t next_context_rr_ = 0;  // Round-robin for accepted/united conns.
  // The context whose dispatch continuation is running (its pushes are
  // deferred; all callbacks there run on that context's core).
  static constexpr size_t kNotDeferring = ~size_t{0};
  size_t deferring_ = kNotDeferring;
  std::vector<uint8_t> splice_buf_;  // Ring-to-ring bounce storage for Splice.
};

}  // namespace tas

#endif  // SRC_LIBTAS_TAS_STACK_H_
