#include "src/proxy/proxy_client.h"

#include <algorithm>

#include "src/proxy/proxy_wire.h"
#include "src/sim/context.h"
#include "src/util/logging.h"

namespace tas {
namespace {

constexpr uint64_t kAppCyclesPerRequest = 200;  // Client-side request build/parse.

}  // namespace

ProxyClientGen::ProxyClientGen(Simulator* sim, Stack* stack, const ProxyClientConfig& config)
    : sim_(sim),
      stack_(stack),
      config_(config),
      rng_(config.rng_seed),
      zipf_(config.num_objects, config.zipf_skew) {
  TAS_CHECK(config_.concurrency > 0);
  scratch_.resize(16 * 1024);
  stack_->SetHandler(this);
}

void ProxyClientGen::Start() {
  const size_t initial = config_.total_connections > 0
                             ? std::min(config_.concurrency, config_.total_connections)
                             : config_.concurrency;
  for (size_t i = 0; i < initial; ++i) {
    const TimeNs delay =
        config_.connect_spread > 0
            ? static_cast<TimeNs>(rng_.NextUint64(static_cast<uint64_t>(config_.connect_spread)))
            : 0;
    OpenConnection(delay);
  }
}

void ProxyClientGen::OpenConnection(TimeNs delay) {
  ++conns_opened_;
  if (delay > 0) {
    sim_->After(delay, [this] {
      const ConnId conn = stack_->Connect(config_.proxy_ip, config_.proxy_port);
      conns_.emplace(conn, CState{});
    });
    return;
  }
  const ConnId conn = stack_->Connect(config_.proxy_ip, config_.proxy_port);
  conns_.emplace(conn, CState{});
}

void ProxyClientGen::BeginMeasurement() {
  measuring_ = true;
  latency_.Clear();
}

uint32_t ProxyClientGen::ExpectedBody(uint32_t object_id) const {
  return ProxyObjectBytes(object_id, config_.min_body_bytes, config_.body_spread);
}

void ProxyClientGen::OnConnected(ConnId conn, bool success) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) {
    return;
  }
  if (!success) {
    ++connect_failures_;
    conns_.erase(it);
    // Keep pressure up: replace the failed attempt (the budget slot was
    // consumed, so hand it back before reopening).
    --conns_opened_;
    OpenConnection(0);
    return;
  }
  it->second.connected = true;
  const TimeNs now = sim_->Now();
  if (config_.first_request_at > now) {
    sim_->At(config_.first_request_at, [this, conn] {
      auto cit = conns_.find(conn);
      if (cit != conns_.end() && cit->second.connected) {
        cit->second.started = true;
        MaybeSend(conn, cit->second);
      }
    });
    return;
  }
  it->second.started = true;
  MaybeSend(conn, it->second);
}

void ProxyClientGen::MaybeSend(ConnId conn, CState& state) {
  if (!state.connected || !state.started || state.fin_sent) {
    return;
  }
  const size_t quota = config_.total_connections > 0 ? config_.requests_per_connection : 0;
  while (state.inflight.size() < config_.pipeline_depth) {
    uint32_t object_id;
    bool is_retry = false;
    if (!retry_queue_.empty()) {
      object_id = retry_queue_.front();
      is_retry = true;
    } else if ((quota == 0 || state.issued < quota) &&
               (config_.total_connections == 0 ||
                issued_ < config_.total_connections * config_.requests_per_connection)) {
      object_id = static_cast<uint32_t>(zipf_.Sample(rng_));
    } else {
      break;
    }
    if (stack_->SendSpace(conn) < kProxyRequestBytes) {
      return;  // Resume on OnSendSpace; retry entry stays queued.
    }
    if (is_retry) {
      retry_queue_.pop_front();
    } else {
      ++state.issued;
      ++issued_;
    }
    const uint32_t request_id = next_request_id_++;
    stack_->ChargeApp(conn, kAppCyclesPerRequest);
    uint64_t trace_id = 0;
    uint32_t root_span = 0;
    if (CausalTracer* ct = sim_->context().causal_sink()) {
      // Mint the trace here — the client is the causal root; everything
      // downstream parents under root_span via the wire context.
      trace_id = ct->BeginTrace(sim_->Now());
      root_span = ct->StartSpan(trace_id, 0, CausalSpanKind::kRequest, sim_->Now(), object_id,
                                request_id);
    }
    uint8_t buf[kProxyRequestBytes];
    EncodeProxyRequest(buf, ProxyRequest{object_id, request_id, trace_id, root_span});
    const size_t sent = stack_->Send(conn, buf, sizeof(buf));
    TAS_CHECK(sent == sizeof(buf));
    state.inflight.push_back(PendingReq{object_id, request_id, sim_->Now(), trace_id, root_span});
  }
  if (quota > 0 && state.issued >= quota && config_.half_close && !state.fin_sent &&
      retry_queue_.empty()) {
    // All requests written: say goodbye now and collect the owed responses
    // on the half-open connection (the proxy's half-close path).
    state.fin_sent = true;
    stack_->Close(conn);
  }
}

void ProxyClientGen::OnData(ConnId conn, size_t bytes) {
  (void)bytes;
  auto it = conns_.find(conn);
  if (it != conns_.end()) {
    HandleResponseData(conn, it->second);
  }
}

void ProxyClientGen::HandleResponseData(ConnId conn, CState& state) {
  for (;;) {
    if (state.in_body) {
      if (state.body_remaining > 0) {
        const size_t avail = stack_->RecvAvailable(conn);
        if (avail == 0) {
          return;
        }
        const size_t take =
            std::min<size_t>(std::min<size_t>(avail, state.body_remaining), scratch_.size());
        const size_t got = stack_->Recv(conn, scratch_.data(), take);
        state.body_remaining -= static_cast<uint32_t>(got);
        if (state.body_remaining > 0) {
          continue;
        }
      }
      CompleteResponse(conn, state);
      continue;
    }
    const size_t avail = stack_->RecvAvailable(conn);
    if (avail == 0) {
      return;
    }
    const size_t need = kProxyResponseHeader - state.header_have;
    const size_t got =
        stack_->Recv(conn, state.header + state.header_have, std::min(need, avail));
    state.header_have += got;
    if (state.header_have < kProxyResponseHeader) {
      return;
    }
    state.header_have = 0;
    const ProxyResponseHeader hdr = DecodeProxyResponseHeader(state.header);
    if (state.inflight.empty() || state.inflight.front().request_id != hdr.request_id) {
      // Out-of-order or unsolicited response: the conn is unusable.
      ++mismatches_;
      if (!state.fin_sent) {
        state.fin_sent = true;
        stack_->Close(conn);
      }
      return;
    }
    if (hdr.body_len != ExpectedBody(state.inflight.front().object_id)) {
      ++bad_bodies_;
    }
    if (hdr.trace_id != state.inflight.front().trace_id) {
      ++trace_mismatches_;  // Proxy must echo the request's trace id (or 0).
    }
    state.in_body = true;
    state.body_remaining = hdr.body_len;
  }
}

void ProxyClientGen::CompleteResponse(ConnId conn, CState& state) {
  state.in_body = false;
  const PendingReq req = state.inflight.front();
  state.inflight.pop_front();
  if (!responded_.insert(req.request_id).second) {
    ++duplicates_;
  }
  ++completed_;
  if (measuring_) {
    latency_.Add(static_cast<double>(sim_->Now() - req.sent_at));
  }
  if (req.trace_id != 0) {
    if (CausalTracer* ct = sim_->context().causal_sink()) {
      // Last body byte consumed: the trace is complete end-to-end. Finish
      // appends the final net_response mark and folds the critical path.
      ct->EndSpan(req.trace_id, req.root_span, sim_->Now());
      ct->Finish(req.trace_id, sim_->Now());
    }
  }
  const size_t quota = config_.total_connections > 0 ? config_.requests_per_connection : 0;
  if (quota > 0 && state.issued >= quota && state.inflight.empty() && retry_queue_.empty()) {
    // Conn is done. With half_close the FIN already went out and the proxy
    // closes once it sees our FIN after flushing; otherwise close now.
    if (!state.fin_sent) {
      state.fin_sent = true;
      stack_->Close(conn);
    }
    return;
  }
  MaybeSend(conn, state);
}

void ProxyClientGen::OnSendSpace(ConnId conn, size_t bytes) {
  (void)bytes;
  auto it = conns_.find(conn);
  if (it != conns_.end()) {
    MaybeSend(conn, it->second);
  }
}

void ProxyClientGen::OnRemoteClosed(ConnId conn) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) {
    return;
  }
  // The proxy finished its direction (normal after our half-close FIN, or an
  // abort). Answer with our own close if we have not already.
  if (!it->second.fin_sent) {
    it->second.fin_sent = true;
    stack_->Close(conn);
  }
}

void ProxyClientGen::OnClosed(ConnId conn) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) {
    return;
  }
  CState dead = std::move(it->second);
  conns_.erase(it);
  RetryInflight(dead);
  // Replace the connection while the churn budget lasts.
  if (config_.total_connections == 0 || conns_opened_ < config_.total_connections) {
    ++reconnects_;
    OpenConnection(0);
  } else if (!retry_queue_.empty() && conns_.empty()) {
    // Budget spent but retries remain and nobody can carry them: correctness
    // beats the budget — open one more conn.
    ++reconnects_;
    OpenConnection(0);
  }
}

void ProxyClientGen::RetryInflight(CState& state) {
  CausalTracer* ct = sim_->context().causal_sink();
  for (const PendingReq& req : state.inflight) {
    ++retries_;
    if (ct != nullptr && req.trace_id != 0) {
      // The retry is a new logical attempt with a fresh request id; the
      // original trace never completes, so retire it explicitly.
      ct->Abandon(req.trace_id);
    }
    retry_queue_.push_back(req.object_id);
  }
  state.inflight.clear();
  if (retry_queue_.empty()) {
    return;
  }
  // Nudge live conns with headroom to pick the retries up — in id order, so
  // the pick does not depend on hash-map layout (same-seed determinism).
  std::vector<ConnId> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) {
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  for (ConnId id : ids) {
    auto it = conns_.find(id);
    if (it == conns_.end()) {
      continue;
    }
    if (it->second.connected && !it->second.fin_sent) {
      MaybeSend(id, it->second);
      if (retry_queue_.empty()) {
        break;
      }
    }
  }
}

}  // namespace tas
