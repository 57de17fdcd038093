#include "src/proxy/origin_server.h"

#include <algorithm>

#include "src/proxy/proxy_wire.h"
#include "src/sim/context.h"
#include "src/trace/causal.h"

namespace tas {

OriginServer::OriginServer(Simulator* sim, Stack* stack, const OriginServerConfig& config)
    : sim_(sim), stack_(stack), config_(config) {}

void OriginServer::Start() {
  stack_->SetHandler(this);
  stack_->Listen(config_.port);
}

uint32_t OriginServer::BodyBytes(uint32_t object_id) const {
  return ProxyObjectBytes(object_id, config_.min_body_bytes, config_.body_spread);
}

void OriginServer::OnAccepted(ConnId conn, uint16_t port) {
  (void)port;
  conns_.emplace(conn, ConnState{});
}

void OriginServer::OnData(ConnId conn, size_t bytes) {
  (void)bytes;
  auto it = conns_.find(conn);
  if (it == conns_.end()) {
    return;
  }
  ConnState& state = it->second;
  size_t avail = stack_->RecvAvailable(conn);
  while (avail > 0) {
    const size_t old = state.inbuf.size();
    state.inbuf.resize(old + avail);
    const size_t got = stack_->Recv(conn, state.inbuf.data() + old, avail);
    state.inbuf.resize(old + got);
    if (got == 0) {
      break;
    }
    avail = stack_->RecvAvailable(conn);
  }
  size_t off = 0;
  while (!state.closing && state.inbuf.size() - off >= kProxyRequestBytes) {
    const ProxyRequest req = DecodeProxyRequest(state.inbuf.data() + off);
    off += kProxyRequestBytes;
    stack_->ChargeApp(conn, config_.app_cycles_per_request);
    const uint32_t body_len = BodyBytes(req.object_id);
    if (req.trace_id != 0) {
      if (CausalTracer* ct = sim_->context().causal_sink()) {
        // Request crossed proxy -> origin; serve span parents under the
        // proxy's origin-fetch span carried on the wire.
        ct->Mark(req.trace_id, CausalEdge::kNetToOrigin, sim_->Now());
        const uint32_t span =
            ct->StartSpan(req.trace_id, req.parent_span, CausalSpanKind::kOriginServe,
                          sim_->Now(), req.object_id, req.request_id);
        state.out_msgs.push_back(
            OutMsg{state.outbox.size() + kProxyResponseHeader + body_len, req.trace_id, span});
      }
    }
    const size_t out_off = state.outbox.size();
    state.outbox.resize(out_off + kProxyResponseHeader + body_len);  // Zero body.
    EncodeProxyResponseHeader(
        state.outbox.data() + out_off,
        ProxyResponseHeader{kProxyStatusOk, req.request_id, body_len, req.trace_id});
    ++requests_served_;
    ++state.served;
    if (config_.close_after_requests > 0 && state.served >= config_.close_after_requests) {
      // Quota reached: stop consuming requests (any still buffered are the
      // caller's to re-dispatch) and close once the outbox flushes. The
      // stack's graceful Close sends the FIN only after queued tx drains.
      state.closing = true;
      ++conns_closed_by_quota_;
    }
  }
  if (off > 0) {
    state.inbuf.erase(state.inbuf.begin(), state.inbuf.begin() + static_cast<ptrdiff_t>(off));
  }
  Flush(conn, state);
}

void OriginServer::Flush(ConnId conn, ConnState& state) {
  while (state.outbox_off < state.outbox.size()) {
    const size_t n = stack_->Send(conn, state.outbox.data() + state.outbox_off,
                                  state.outbox.size() - state.outbox_off);
    if (n == 0) {
      break;  // Resume on OnSendSpace.
    }
    state.outbox_off += n;
  }
  // Every traced response whose last byte the stack just accepted is served:
  // close its edge + span (it is "in the network" from here).
  while (!state.out_msgs.empty() && state.outbox_off >= state.out_msgs.front().end_off) {
    const OutMsg& msg = state.out_msgs.front();
    if (CausalTracer* ct = sim_->context().causal_sink()) {
      ct->Mark(msg.trace, CausalEdge::kOriginServe, sim_->Now());
      ct->EndSpan(msg.trace, msg.span, sim_->Now());
    }
    state.out_msgs.pop_front();
  }
  if (state.outbox_off < state.outbox.size()) {
    return;
  }
  state.outbox.clear();
  state.outbox_off = 0;
  if (state.closing && !state.close_sent) {
    state.close_sent = true;
    stack_->Close(conn);
  }
}

void OriginServer::OnSendSpace(ConnId conn, size_t bytes) {
  (void)bytes;
  auto it = conns_.find(conn);
  if (it != conns_.end()) {
    Flush(conn, it->second);
  }
}

void OriginServer::OnRemoteClosed(ConnId conn) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) {
    return;
  }
  // Peer (the proxy pool, typically its idle reaper) is done sending: flush
  // whatever responses are still owed, then close our direction.
  it->second.closing = true;
  Flush(conn, it->second);
}

void OriginServer::OnClosed(ConnId conn) { conns_.erase(conn); }

}  // namespace tas
