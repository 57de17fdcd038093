#include "src/proxy/origin_pool.h"

#include <algorithm>

#include "src/proxy/proxy_wire.h"
#include "src/sim/context.h"
#include "src/trace/causal.h"
#include "src/util/logging.h"

namespace tas {

OriginPool::OriginPool(Simulator* sim, Stack* stack, const OriginPoolConfig& config)
    : sim_(sim), stack_(stack), config_(config) {
  TAS_CHECK(config_.max_conns > 0);
  TAS_CHECK(config_.pipeline_depth > 0);
}

void OriginPool::Start() {
  if (config_.idle_timeout > 0 && config_.reap_interval > 0) {
    reaper_ = std::make_unique<PeriodicTask>(sim_, config_.reap_interval, [this] { Reap(); });
    reaper_->Start();
  }
}

void OriginPool::Dispatch(Pending req) {
  // Least-loaded live (or still-connecting) conn with pipeline headroom.
  ConnId best_id = kInvalidConn;
  OriginConn* best = SelectConn(&best_id);
  if (best != nullptr && (best->connected || conns_.size() >= config_.max_conns)) {
    if (best->connected) {
      ++stats_.reused;
    }
    Assign(best_id, *best, req);
    return;
  }
  if (conns_.size() < config_.max_conns) {
    const ConnId id = OpenConn();
    Assign(id, conns_.at(id), req);
    return;
  }
  queue_.push_back(req);
  stats_.queued_hw = std::max<uint64_t>(stats_.queued_hw, queue_.size());
}

void OriginPool::Assign(ConnId id, OriginConn& conn, Pending req) {
  if (req.trace != 0) {
    if (CausalTracer* ct = sim_->context().causal_sink()) {
      // Dispatch -> assigned: zero-width when a conn had headroom, the
      // overflow-queue wait when the request came off `queue_`.
      ct->Mark(req.trace, CausalEdge::kOverflowQueue, sim_->Now());
    }
  }
  conn.inflight.push_back(req);
  ++conn.unsent;
  if (conn.connected) {
    TryWrite(id, conn);
  }
}

ConnId OriginPool::OpenConn() {
  const ConnId id = stack_->Connect(config_.origin_ip, config_.origin_port);
  ++stats_.opened;
  OriginConn conn;
  conn.idle_since = sim_->Now();
  conns_.emplace(id, std::move(conn));
  stats_.conns_hw = std::max<uint64_t>(stats_.conns_hw, conns_.size());
  return id;
}

void OriginPool::TryWrite(ConnId id, OriginConn& conn) {
  while (conn.unsent > 0) {
    if (stack_->SendSpace(id) < kProxyRequestBytes) {
      return;  // Resume on OnSendSpace.
    }
    Pending& req = conn.inflight[conn.inflight.size() - conn.unsent];
    uint8_t buf[kProxyRequestBytes];
    EncodeProxyRequest(buf, ProxyRequest{req.object_id, req.request_id, req.trace, req.span});
    const size_t sent = stack_->Send(id, buf, sizeof(buf));
    TAS_CHECK(sent == sizeof(buf));
    --conn.unsent;
    if (req.trace != 0) {
      if (CausalTracer* ct = sim_->context().causal_sink()) {
        // Assigned -> accepted by the origin conn (pipeline backpressure).
        ct->Mark(req.trace, CausalEdge::kOriginQueue, sim_->Now());
      }
    }
  }
}

OriginPool::Pending* OriginPool::Front(ConnId conn) {
  auto it = conns_.find(conn);
  if (it == conns_.end() || it->second.inflight.empty()) {
    return nullptr;
  }
  // The front entry must have been written for a response to exist.
  return &it->second.inflight.front();
}

void OriginPool::PopFront(ConnId conn) {
  auto it = conns_.find(conn);
  TAS_CHECK(it != conns_.end() && !it->second.inflight.empty());
  const Pending& front = it->second.inflight.front();
  if (front.trace != 0) {
    if (CausalTracer* ct = sim_->context().causal_sink()) {
      // The fetch is over once its response has been fully consumed (body
      // buffered, spliced through, or discarded).
      ct->EndSpan(front.trace, front.span, sim_->Now());
    }
  }
  it->second.inflight.pop_front();
  if (it->second.inflight.empty()) {
    it->second.idle_since = sim_->Now();
  }
  PumpQueue();
}

void OriginPool::HandleConnected(ConnId conn, bool success) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) {
    return;
  }
  if (!success) {
    ++stats_.connect_failures;
    ++stats_.retired;
    OriginConn dead = std::move(it->second);
    conns_.erase(it);
    RedispatchInflight(dead);
    PumpQueue();
    return;
  }
  it->second.connected = true;
  it->second.idle_since = sim_->Now();
  TryWrite(conn, it->second);
  PumpQueue();
}

void OriginPool::HandleSendSpace(ConnId conn) {
  auto it = conns_.find(conn);
  if (it != conns_.end() && it->second.connected && !it->second.closing) {
    TryWrite(conn, it->second);
  }
}

void OriginPool::HandleRemoteClosed(ConnId conn) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) {
    return;
  }
  // The origin finished sending: every response it will ever produce has
  // already been drained (data events precede the FIN event), so anything
  // still in flight here is unanswered — move it to a live conn and answer
  // the FIN with our own.
  OriginConn& conn_state = it->second;
  const bool was_closing = conn_state.closing;
  conn_state.closing = true;
  if (!was_closing) {
    ++stats_.retired;  // Reaped conns were already accounted as reaped.
  }
  OriginConn drained;
  drained.inflight = std::move(conn_state.inflight);
  drained.unsent = conn_state.unsent;
  conn_state.inflight.clear();
  conn_state.unsent = 0;
  if (!was_closing) {
    stack_->Close(conn);
  }
  RedispatchInflight(drained);
}

void OriginPool::HandleClosed(ConnId conn) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) {
    return;
  }
  OriginConn dead = std::move(it->second);
  conns_.erase(it);
  if (!dead.closing) {
    // Abortive death (reset / failure) — retirement not yet counted.
    ++stats_.retired;
  }
  RedispatchInflight(dead);
  PumpQueue();
}

void OriginPool::RedispatchInflight(OriginConn& conn) {
  for (Pending& req : conn.inflight) {
    ++stats_.redispatched;
    Dispatch(req);
  }
  conn.inflight.clear();
  conn.unsent = 0;
}

OriginPool::OriginConn* OriginPool::SelectConn(ConnId* best_id) {
  // Prefer connected conns over connecting ones, then the emptiest; break
  // remaining ties on the lowest conn id so the pick is independent of
  // unordered_map iteration order (determinism across runs).
  OriginConn* best = nullptr;
  for (auto& [id, conn] : conns_) {
    if (conn.closing || conn.inflight.size() >= config_.pipeline_depth) {
      continue;
    }
    if (best == nullptr || (conn.connected && !best->connected) ||
        (conn.connected == best->connected &&
         (conn.inflight.size() < best->inflight.size() ||
          (conn.inflight.size() == best->inflight.size() && id < *best_id)))) {
      *best_id = id;
      best = &conn;
    }
  }
  return best;
}

void OriginPool::PumpQueue() {
  while (!queue_.empty()) {
    // Same policy as Dispatch, but never re-queue: stop at the first request
    // that finds no capacity.
    ConnId best_id = kInvalidConn;
    OriginConn* best = SelectConn(&best_id);
    if (best == nullptr) {
      if (conns_.size() < config_.max_conns) {
        OpenConn();
        continue;  // The fresh conn is picked up next iteration.
      }
      return;
    }
    if (best->connected) {
      ++stats_.reused;
    }
    Pending req = queue_.front();
    queue_.pop_front();
    Assign(best_id, *best, req);
  }
}

void OriginPool::Reap() {
  const TimeNs now = sim_->Now();
  // Collect then sort: the close order must not depend on hash layout.
  std::vector<ConnId> idle;
  for (auto& [id, conn] : conns_) {
    if (conn.connected && !conn.closing && conn.inflight.empty() &&
        now - conn.idle_since >= config_.idle_timeout) {
      idle.push_back(id);
    }
  }
  std::sort(idle.begin(), idle.end());
  for (ConnId id : idle) {
    conns_.at(id).closing = true;
    ++stats_.reaped;
    stack_->Close(id);
  }
}

}  // namespace tas
