#include "src/libtas/tas_stack.h"

#include <algorithm>

namespace tas {

TasStack::TasStack(TasService* service, std::vector<Core*> app_cores,
                   const StackCostModel* api_costs)
    : service_(service), costs_(api_costs) {
  TAS_CHECK(!app_cores.empty());
  contexts_.reserve(app_cores.size());
  for (size_t i = 0; i < app_cores.size(); ++i) {
    Context ctx;
    ctx.queues = std::make_unique<AppContext>();
    ctx.core = app_cores[i];
    ctx.id = service_->RegisterContext(ctx.queues.get());
    contexts_.push_back(std::move(ctx));
  }
  // Each event is one poll iteration on the app thread (epoll/recv in
  // sockets mode, a direct queue read in low-level mode): an entry bringing
  // received bytes pays the receive API, whatever else it carries; one that
  // only frees send space, and connection control, pay a queue read. A data
  // entry carrying both counts is two notifications of the poll's batch.
  const AppEventLoopConfig loop{
      static_cast<size_t>(std::max(1, service_->config().app_event_batch))};
  for (size_t i = 0; i < contexts_.size(); ++i) {
    Context& ctx = contexts_[i];
    ctx.loop = std::make_unique<AppEventLoop<AppEvent>>(
        service_->sim(), ctx.core, &ctx.queues->rx(), loop,
        [this](const AppEvent& e) {
          return e.type == AppEventType::kData && e.bytes > 0 ? costs_->rx_api : kEventReadCycles;
        },
        [](const AppEvent& e) -> size_t {
          return e.type == AppEventType::kData && e.bytes > 0 && e.acked > 0 ? 2 : 1;
        },
        [this, i](const std::vector<AppEvent>& batch) { DispatchBatch(i, batch); });
    ctx.queues->set_app_notify([loop = ctx.loop.get()] { loop->Wake(); });
  }
}

TasStack::~TasStack() = default;

TasStack::Conn* TasStack::GetConn(ConnId id) {
  return const_cast<Conn*>(static_cast<const TasStack*>(this)->GetConn(id));
}

const TasStack::Conn* TasStack::GetConn(ConnId id) const {
  if (id >= kInvalidFlow) {
    return nullptr;  // Not a flow id.
  }
  const size_t slot = FlowSlotOf(static_cast<FlowId>(id));
  if (slot < conns_.size() && conns_[slot].flow == id) {
    return &conns_[slot];
  }
  for (const Conn& c : displaced_) {
    if (c.flow == id) {
      return &c;
    }
  }
  return nullptr;
}

void TasStack::AddConn(const Conn& conn) {
  EraseConn(conn.flow);
  const size_t slot = FlowSlotOf(conn.flow);
  if (slot >= conns_.size()) {
    conns_.resize(slot + 1);
  }
  if (conns_[slot].flow != kInvalidFlow) {
    displaced_.push_back(conns_[slot]);
  }
  conns_[slot] = conn;
}

void TasStack::EraseConn(ConnId id) {
  if (id >= kInvalidFlow) {
    return;
  }
  const size_t slot = FlowSlotOf(static_cast<FlowId>(id));
  if (slot < conns_.size() && conns_[slot].flow == id) {
    conns_[slot] = Conn{};
    return;
  }
  for (size_t i = 0; i < displaced_.size(); ++i) {
    if (displaced_[i].flow == id) {
      displaced_[i] = displaced_.back();
      displaced_.pop_back();
      return;
    }
  }
}

void TasStack::AtCoreHorizon(Core* core, size_t ctx_index, const TxCommand& cmd) {
  if (deferring_ != kNotDeferring) {
    contexts_[deferring_].deferred.push_back(DeferredPush{ctx_index, cmd});
    return;
  }
  const TimeNs when = std::max(service_->sim()->Now(), core->busy_until());
  service_->sim()->At(when, [this, ctx_index, cmd] {
    contexts_[ctx_index].queues->PushCommand(cmd);
  });
}

void TasStack::Listen(uint16_t port) {
  // The listener's opaque carries the port; accepted flows are re-tagged
  // with their connection id in DispatchEvent (libTAS owns `opaque`).
  service_->Listen(port, port, contexts_[0].id);
}

ConnId TasStack::Connect(IpAddr dst_ip, uint16_t dst_port) {
  const size_t ctx_index = next_context_rr_++ % contexts_.size();
  // The flow id doubles as the connection id; the service tags fs.opaque
  // with it so every event identifies the connection directly.
  const FlowId flow = service_->Connect(dst_ip, dst_port, 0, contexts_[ctx_index].id);
  AddConn(Conn{flow, ctx_index, 0, false, false});
  return flow;
}

size_t TasStack::Send(ConnId conn, const uint8_t* data, size_t len) {
  Conn* c = GetConn(conn);
  if (c == nullptr || c->tx_closed) {
    return 0;
  }
  Flow* flow = service_->GetFlow(c->flow);
  if (flow == nullptr || flow->cstate == ConnState::kFreed) {
    return 0;
  }
  Core* core = contexts_[c->context].core;
  const uint32_t written = flow->AppWriteTx(data, static_cast<uint32_t>(len));
  core->Charge(CpuModule::kSockets,
               costs_->tx_api + static_cast<uint64_t>(costs_->copy_cycles_per_byte *
                                                      static_cast<double>(written)));
  if (written > 0) {
    AtCoreHorizon(core, c->context, TxCommand{TxCommandType::kSend, c->flow, written});
  }
  return written;
}

size_t TasStack::Recv(ConnId conn, uint8_t* data, size_t len) {
  Conn* c = GetConn(conn);
  if (c == nullptr) {
    return 0;
  }
  Flow* flow = service_->GetFlow(c->flow);
  if (flow == nullptr) {
    return 0;
  }
  Core* core = contexts_[c->context].core;
  const uint32_t mss = flow->mss;
  const bool was_closed = flow->RxFree() < mss;
  const uint32_t read = flow->AppReadRx(data, static_cast<uint32_t>(len));
  core->Charge(CpuModule::kSockets,
               static_cast<uint64_t>(costs_->copy_cycles_per_byte * static_cast<double>(read)));
  c->deliverable -= std::min<size_t>(c->deliverable, read);
  if (was_closed && flow->RxFree() >= mss && flow->RxFastPathEligible()) {
    AtCoreHorizon(core, c->context, TxCommand{TxCommandType::kWindowUpdate, c->flow, 0});
  }
  return read;
}

size_t TasStack::RecvAvailable(ConnId conn) const {
  const Conn* c = GetConn(conn);
  if (c == nullptr) {
    return 0;
  }
  const Flow* flow = const_cast<TasService*>(service_)->GetFlow(c->flow);
  return flow == nullptr ? 0 : flow->RxUsed();
}

size_t TasStack::SendSpace(ConnId conn) const {
  // Zero wherever Send would refuse: a closed TX side or a freed flow.
  const Conn* c = GetConn(conn);
  if (c == nullptr || c->tx_closed) {
    return 0;
  }
  const Flow* flow = const_cast<TasService*>(service_)->GetFlow(c->flow);
  if (flow == nullptr || flow->cstate == ConnState::kFreed) {
    return 0;
  }
  return flow->fs.tx_size - flow->TxQueued();
}

size_t TasStack::Splice(ConnId from, ConnId to, size_t len) {
  Conn* src = GetConn(from);
  Conn* dst = GetConn(to);
  if (src == nullptr || dst == nullptr || dst->tx_closed) {
    return 0;
  }
  Flow* fsrc = service_->GetFlow(src->flow);
  Flow* fdst = service_->GetFlow(dst->flow);
  if (fsrc == nullptr || fdst == nullptr || fdst->cstate == ConnState::kFreed) {
    return 0;
  }
  uint32_t n = static_cast<uint32_t>(
      std::min<size_t>(len, std::min<uint32_t>(fsrc->RxUsed(),
                                               fdst->fs.tx_size - fdst->TxQueued())));
  if (n == 0) {
    return 0;
  }
  // Both payload rings live in shared memory, so the stack moves descriptors
  // plus one in-stack copy — no per-byte crossing of the app boundary. The
  // simulation still memcpys through a bounce buffer; the *modeled* cost is
  // the splice charge below instead of two copy_cycles_per_byte passes.
  if (splice_buf_.size() < n) {
    splice_buf_.resize(n);
  }
  const uint32_t mss = fsrc->mss;
  const bool was_closed = fsrc->RxFree() < mss;
  fsrc->AppReadRx(splice_buf_.data(), n);
  fdst->AppWriteTx(splice_buf_.data(), n);
  src->deliverable -= std::min<size_t>(src->deliverable, n);
  Core* core = contexts_[src->context].core;
  core->Charge(CpuModule::kSockets,
               costs_->tx_api + static_cast<uint64_t>(costs_->splice_cycles_per_byte *
                                                      static_cast<double>(n)));
  if (was_closed && fsrc->RxFree() >= mss && fsrc->RxFastPathEligible()) {
    AtCoreHorizon(core, src->context,
                  TxCommand{TxCommandType::kWindowUpdate, src->flow, 0});
  }
  AtCoreHorizon(core, dst->context, TxCommand{TxCommandType::kSend, dst->flow, n});
  return n;
}

void TasStack::Close(ConnId conn) {
  Conn* c = GetConn(conn);
  if (c == nullptr || c->tx_closed) {
    return;
  }
  c->tx_closed = true;
  contexts_[c->context].core->Charge(CpuModule::kSockets, 200);
  service_->Close(c->flow);
}

void TasStack::ChargeApp(ConnId conn, uint64_t cycles) {
  Conn* c = GetConn(conn);
  const size_t ctx = c == nullptr ? 0 : c->context;
  contexts_[ctx].core->Charge(
      CpuModule::kApp,
      static_cast<uint64_t>(static_cast<double>(cycles) * costs_->app_interference_factor));
}

void TasStack::DispatchBatch(size_t context_index, const std::vector<AppEvent>& batch) {
  Context& c = contexts_[context_index];
  TAS_CHECK(c.deferred.empty()) << "deferred pushes outlived their flush";
  deferring_ = context_index;
  for (const AppEvent& e : batch) {
    DispatchEvent(context_index, e);
  }
  deferring_ = kNotDeferring;
  if (!c.deferred.empty()) {
    // All callbacks above charged c.core; their queue pushes ride one
    // aggregated event at the batch's final work horizon instead of one
    // each (each push would have been at or before this horizon). The
    // context's next dispatch charges c.core again, so it completes at or
    // after this flush and, on a tie, was scheduled after it.
    const TimeNs when = std::max(service_->sim()->Now(), c.core->busy_until());
    service_->sim()->At(when, [this, context_index] { FlushDeferred(context_index); });
  }
}

void TasStack::FlushDeferred(size_t context_index) {
  std::vector<DeferredPush>& pushes = contexts_[context_index].deferred;
  for (const DeferredPush& p : pushes) {
    contexts_[p.ctx_index].queues->PushCommand(p.cmd);
  }
  pushes.clear();
}

void TasStack::DispatchEvent(size_t /*context_index*/, const AppEvent& event) {
  switch (event.type) {
    case AppEventType::kData: {
      Conn* c = GetConn(event.opaque);
      if (c == nullptr || handler_ == nullptr) {
        return;
      }
      if (event.bytes > 0) {
        c->deliverable += event.bytes;
        handler_->OnData(event.opaque, event.bytes);
        c = GetConn(event.opaque);  // The handler may have moved or closed it.
      }
      if (event.acked > 0 && c != nullptr && !c->tx_closed) {
        handler_->OnSendSpace(event.opaque, event.acked);
      }
      return;
    }
    case AppEventType::kConnOpened: {
      if (handler_ != nullptr) {
        handler_->OnConnected(event.opaque, true);
      }
      return;
    }
    case AppEventType::kConnOpenFailed: {
      if (handler_ != nullptr) {
        handler_->OnConnected(event.opaque, false);
      }
      EraseConn(event.opaque);
      return;
    }
    case AppEventType::kConnFin: {
      Conn* c = GetConn(event.opaque);
      if (c == nullptr || c->rx_closed) {
        return;
      }
      c->rx_closed = true;
      // Delivered even after a local Close() — like read() returning EOF on
      // a shutdown(WR) socket — so an actively half-closing app still learns
      // when the peer finishes its direction.
      if (handler_ != nullptr) {
        handler_->OnRemoteClosed(event.opaque);
      }
      return;
    }
    case AppEventType::kConnClosed: {
      Conn* c = GetConn(event.opaque);
      if (c == nullptr) {
        return;
      }
      // Abortive teardown (reset, retry exhaustion) can land here without a
      // preceding kConnFin; surface the half-close first so handlers always
      // observe OnRemoteClosed before OnClosed on a peer-initiated death.
      if (!c->rx_closed && handler_ != nullptr) {
        c->rx_closed = true;
        handler_->OnRemoteClosed(event.opaque);
        c = GetConn(event.opaque);
        if (c == nullptr) {
          return;
        }
      }
      if (handler_ != nullptr) {
        handler_->OnClosed(event.opaque);
      }
      EraseConn(event.opaque);
      return;
    }
    case AppEventType::kAcceptable: {
      // event.opaque = listening port, event.bytes = flow id.
      const FlowId flow_id = event.bytes;
      Flow* flow = service_->GetFlow(flow_id);
      if (flow == nullptr || flow->cstate == ConnState::kFreed) {
        return;
      }
      const size_t ctx_index = next_context_rr_++ % contexts_.size();
      AddConn(Conn{flow_id, ctx_index, 0, false, false});
      // Route future events to the context (and app core) owning this conn;
      // the event identity (fs.opaque == flow id) never changes.
      flow->fs.context = contexts_[ctx_index].id;
      if (handler_ != nullptr) {
        handler_->OnAccepted(flow_id, static_cast<uint16_t>(event.opaque));
      }
      return;
    }
  }
}

}  // namespace tas
