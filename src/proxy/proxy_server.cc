#include "src/proxy/proxy_server.h"

#include <algorithm>

#include "src/proxy/proxy_wire.h"
#include "src/sim/context.h"
#include "src/util/logging.h"

namespace tas {
namespace {

constexpr uint64_t kHitAppCycles = 350;   // Parse + lookup + response build.
constexpr uint64_t kMissAppCycles = 800;  // Parse + lookup + origin dispatch + match.

}  // namespace

ProxyServer::ProxyServer(Simulator* sim, Stack* stack, const ProxyServerConfig& config)
    : sim_(sim),
      stack_(stack),
      config_(config),
      cache_(config.cache_bytes),
      pool_(sim, stack, config.pool) {
  scratch_.resize(16 * 1024);
}

void ProxyServer::Start() {
  stack_->SetHandler(this);
  stack_->Listen(config_.listen_port);
  pool_.Start();
}

void ProxyServer::RegisterMetrics(MetricRegistry& registry) {
  registry.AddCounter("proxy.requests", &requests_);
  registry.AddCounter("proxy.responses", &responses_);
  registry.AddCounter("proxy.responses_hit", &responses_hit_);
  registry.AddCounter("proxy.responses_store", &responses_store_);
  registry.AddCounter("proxy.responses_splice", &responses_splice_);
  registry.AddCounter("proxy.spliced_bytes", &spliced_bytes_);
  registry.AddCounter("proxy.coalesced_requests", &coalesced_requests_);
  registry.AddCounter("proxy.discarded_responses", &discarded_responses_);
  registry.AddCounter("proxy.aborted_clients", &aborted_clients_);
  registry.AddCounter("proxy.mismatched_responses", &mismatched_responses_);
  const HotObjectCacheStats& cs = cache_.stats();
  registry.AddCounter("proxy.cache.hits", &cs.hits);
  registry.AddCounter("proxy.cache.misses", &cs.misses);
  registry.AddCounter("proxy.cache.insertions", &cs.insertions);
  registry.AddCounter("proxy.cache.evictions", &cs.evictions);
  registry.AddGauge("proxy.cache.bytes",
                    [this] { return static_cast<double>(cache_.bytes()); });
  registry.AddGauge("proxy.cache.entries",
                    [this] { return static_cast<double>(cache_.entries()); });
  const OriginPoolStats& ps = pool_.stats();
  registry.AddCounter("proxy.pool.opened", &ps.opened);
  registry.AddCounter("proxy.pool.reused", &ps.reused);
  registry.AddCounter("proxy.pool.reaped", &ps.reaped);
  registry.AddCounter("proxy.pool.retired", &ps.retired);
  registry.AddCounter("proxy.pool.redispatched", &ps.redispatched);
  registry.AddCounter("proxy.pool.connect_failures", &ps.connect_failures);
  registry.AddCounter("proxy.pool.conns_hw", &ps.conns_hw);
  registry.AddCounter("proxy.pool.queued_hw", &ps.queued_hw);
  registry.AddGauge("proxy.pool.conns",
                    [this] { return static_cast<double>(pool_.live_conns()); });
  registry.AddGauge("proxy.pool.queued",
                    [this] { return static_cast<double>(pool_.queued()); });
}

void ProxyServer::OnConnected(ConnId conn, bool success) {
  if (!pool_.Owns(conn)) {
    return;
  }
  if (success) {
    origin_rx_.emplace(conn, OriginRx{});
  }
  pool_.HandleConnected(conn, success);
}

void ProxyServer::OnAccepted(ConnId conn, uint16_t port) {
  (void)port;
  clients_.emplace(conn, Client{});
}

void ProxyServer::OnData(ConnId conn, size_t bytes) {
  (void)bytes;
  if (pool_.Owns(conn)) {
    HandleOriginData(conn);
    return;
  }
  auto it = clients_.find(conn);
  if (it != clients_.end() && !it->second.closing) {
    HandleClientData(conn, it->second);
  }
}

void ProxyServer::OnSendSpace(ConnId conn, size_t bytes) {
  (void)bytes;
  if (pool_.Owns(conn)) {
    pool_.HandleSendSpace(conn);
    return;
  }
  auto it = clients_.find(conn);
  if (it != clients_.end()) {
    PumpClient(conn, it->second);
  }
}

void ProxyServer::OnRemoteClosed(ConnId conn) {
  if (pool_.Owns(conn)) {
    // Data events precede the FIN, so every response the origin flushed has
    // been consumed by now; drain defensively, then deal with truncation.
    HandleOriginData(conn);
    auto it = origin_rx_.find(conn);
    if (it != origin_rx_.end()) {
      OriginRx& rx = it->second;
      if (rx.mode == OriginRx::Mode::kStoreBody) {
        // Truncated buffered body: drop the partial bytes; the pool will
        // re-dispatch the request and the origin re-serves it whole.
        rx.buf.clear();
        rx.remaining = 0;
        rx.mode = OriginRx::Mode::kHeader;
      } else if (rx.mode == OriginRx::Mode::kSpliceBody && rx.remaining > 0) {
        const ConnId client_conn = rx.client;
        auto cit = clients_.find(client_conn);
        Client* client =
            (cit != clients_.end() && !cit->second.closing) ? &cit->second : nullptr;
        Job* job = client != nullptr ? FindJob(*client, rx.job) : nullptr;
        if (job != nullptr && stack_->RecvAvailable(conn) >= rx.remaining) {
          // The rest of the body is fully buffered on our side; the splice is
          // merely stalled on client send space. Fold the remainder into the
          // job so the origin conn can go away underneath it.
          const size_t old = job->bytes.size();
          job->bytes.resize(old + rx.remaining);
          const size_t got = stack_->Recv(conn, job->bytes.data() + old, rx.remaining);
          job->bytes.resize(old + got);
          job->splice = false;
          job->splice_remaining = 0;
          job->origin = kInvalidConn;
          if (pool_.Front(conn) != nullptr) {
            pool_.PopFront(conn);
          }
          rx.remaining = 0;
          rx.mode = OriginRx::Mode::kHeader;
          rx.client = kInvalidConn;
          // Responses queued behind the spliced body are still in the buffer.
          HandleOriginData(conn);
          PumpClient(client_conn, *client);
        } else {
          // True truncation: part of the body already reached the client and
          // the rest never will. Abort the client conn and retire the request
          // so the re-dispatch machinery does not re-fetch it for a dead
          // client.
          if (client != nullptr) {
            AbortClient(client_conn, *client);
          }
          if (pool_.Front(conn) != nullptr) {
            pool_.PopFront(conn);
          }
          rx.remaining = 0;
          rx.mode = OriginRx::Mode::kHeader;
        }
      } else if (rx.mode == OriginRx::Mode::kHeader) {
        rx.buf.clear();
      }
    }
    pool_.HandleRemoteClosed(conn);
    return;
  }
  auto it = clients_.find(conn);
  if (it == clients_.end()) {
    return;
  }
  // Keep-alive client said goodbye (half-close): finish sending every owed
  // response on the half-open connection, then close our direction.
  it->second.remote_closed = true;
  PumpClient(conn, it->second);
}

void ProxyServer::OnClosed(ConnId conn) {
  if (pool_.Owns(conn)) {
    auto it = origin_rx_.find(conn);
    if (it != origin_rx_.end()) {
      OriginRx& rx = it->second;
      if (rx.mode == OriginRx::Mode::kSpliceBody && rx.remaining > 0) {
        auto cit = clients_.find(rx.client);
        if (cit != clients_.end() && !cit->second.closing) {
          AbortClient(rx.client, cit->second);
        }
        if (pool_.Front(conn) != nullptr) {
          pool_.PopFront(conn);
        }
      }
      origin_rx_.erase(it);
    }
    pool_.HandleClosed(conn);
    return;
  }
  auto it = clients_.find(conn);
  if (it == clients_.end()) {
    return;
  }
  it->second.closing = true;
  DetachClientJobs(conn, it->second);
  clients_.erase(it);
}

void ProxyServer::HandleClientData(ConnId conn, Client& client) {
  size_t avail = stack_->RecvAvailable(conn);
  while (avail > 0) {
    const size_t old = client.inbuf.size();
    client.inbuf.resize(old + avail);
    const size_t got = stack_->Recv(conn, client.inbuf.data() + old, avail);
    client.inbuf.resize(old + got);
    if (got == 0) {
      break;
    }
    avail = stack_->RecvAvailable(conn);
  }
  size_t off = 0;
  while (client.inbuf.size() - off >= kProxyRequestBytes) {
    const ProxyRequest req = DecodeProxyRequest(client.inbuf.data() + off);
    off += kProxyRequestBytes;
    ++requests_;
    CausalTracer* ct = req.trace_id != 0 ? sim_->context().causal_sink() : nullptr;
    Job job;
    job.id = next_job_id_++;
    job.object_id = req.object_id;
    job.request_id = req.request_id;
    job.ctx = TraceContext{req.trace_id, req.parent_span};
    if (ct != nullptr) {
      // Request crossed client -> proxy; job span parents under the client's
      // root span carried on the wire.
      ct->Mark(req.trace_id, CausalEdge::kNetRequest, sim_->Now());
      job.span = ct->StartSpan(req.trace_id, req.parent_span, CausalSpanKind::kProxyJob,
                               sim_->Now(), req.object_id, req.request_id);
    }
    auto pf = pending_fetch_.find(req.object_id);
    if (pf != pending_fetch_.end()) {
      // Single-flight: a fetch for this object is already on its way to the
      // origin. Ride it instead of consulting the cache (which would count a
      // second cold miss) or issuing a duplicate fetch.
      ++coalesced_requests_;
      stack_->ChargeApp(conn, kMissAppCycles);
      if (tracer_ != nullptr) {
        tracer_->Record(sim_->Now(), conn, FlowEventType::kProxyRequest, req.object_id,
                        req.request_id, 0);
      }
      job.was_coalesced = true;
      const uint64_t job_id = job.id;
      client.jobs.push_back(std::move(job));
      pf->second.push_back(Waiter{conn, job_id});
      continue;
    }
    uint32_t body_len = 0;
    const bool hit = cache_.Lookup(req.object_id, &body_len);
    if (tracer_ != nullptr) {
      tracer_->Record(sim_->Now(), conn, FlowEventType::kProxyRequest, req.object_id,
                      req.request_id, hit ? 1 : 0);
    }
    if (hit) {
      stack_->ChargeApp(conn, kHitAppCycles);
      if (ct != nullptr) {
        // Zero-width at handler granularity: the charged lookup cycles defer
        // downstream events and surface in the proxy_send edge instead.
        ct->Mark(req.trace_id, CausalEdge::kCacheWork, sim_->Now());
      }
      job.ready = true;
      job.path = Path::kHit;
      job.body_len = body_len;
      job.bytes.resize(kProxyResponseHeader + body_len);  // Zero-filled body.
      EncodeProxyResponseHeader(
          job.bytes.data(),
          ProxyResponseHeader{kProxyStatusOk, req.request_id, body_len, req.trace_id});
      client.jobs.push_back(std::move(job));
    } else {
      stack_->ChargeApp(conn, kMissAppCycles);
      uint32_t fetch_span = 0;
      if (ct != nullptr) {
        fetch_span = ct->StartSpan(req.trace_id, job.span, CausalSpanKind::kOriginFetch,
                                   sim_->Now(), req.object_id, req.request_id);
      }
      const uint64_t job_id = job.id;
      client.jobs.push_back(std::move(job));
      pending_fetch_.emplace(req.object_id, std::vector<Waiter>{});
      pool_.Dispatch(OriginPool::Pending{req.object_id, req.request_id, conn, job_id,
                                         req.trace_id, fetch_span});
    }
  }
  if (off > 0) {
    client.inbuf.erase(client.inbuf.begin(),
                       client.inbuf.begin() + static_cast<ptrdiff_t>(off));
  }
  PumpClient(conn, client);
}

void ProxyServer::HandleOriginData(ConnId conn) {
  auto it = origin_rx_.find(conn);
  if (it == origin_rx_.end()) {
    return;
  }
  OriginRx& rx = it->second;
  if (rx.in_handler) {
    return;  // Re-entered via a splice completion; the outer loop continues.
  }
  rx.in_handler = true;
  for (;;) {
    if (rx.mode == OriginRx::Mode::kHeader) {
      const size_t avail = stack_->RecvAvailable(conn);
      if (avail == 0) {
        break;
      }
      const size_t need = kProxyResponseHeader - rx.buf.size();
      const size_t take = std::min(need, avail);
      const size_t old = rx.buf.size();
      rx.buf.resize(old + take);
      const size_t got = stack_->Recv(conn, rx.buf.data() + old, take);
      rx.buf.resize(old + got);
      if (rx.buf.size() < kProxyResponseHeader) {
        break;
      }
      const ProxyResponseHeader hdr = DecodeProxyResponseHeader(rx.buf.data());
      rx.buf.clear();
      OriginPool::Pending* front = pool_.Front(conn);
      if (front == nullptr || front->request_id != hdr.request_id) {
        // Response/request desync on this conn: kill it; the pool
        // re-dispatches whatever was still in flight.
        ++mismatched_responses_;
        stack_->Close(conn);
        break;
      }
      rx.body_len = hdr.body_len;
      rx.remaining = hdr.body_len;
      rx.object_id = front->object_id;
      rx.client = front->client;
      rx.job = front->job;
      const bool splice_class =
          hdr.body_len >= config_.splice_min_body && hdr.body_len > 0;
      if (splice_class) {
        // Spliced bodies move straight to the primary's client and never
        // materialize in proxy memory — coalesced waiters need fetches of
        // their own.
        FanOutWaiters(rx.object_id);
      }
      Client* client = nullptr;
      Job* job = nullptr;
      auto cit = clients_.find(rx.client);
      if (cit != clients_.end() && !cit->second.closing) {
        client = &cit->second;
        job = FindJob(*client, rx.job);
      }
      if (client == nullptr || job == nullptr) {
        // The primary client went away while the origin worked.
        ++discarded_responses_;
        if (rx.remaining == 0) {
          cache_.Insert(rx.object_id, 0);
          ServeWaiters(rx.object_id, 0, nullptr, front->trace, front->span);
          pool_.PopFront(conn);
          continue;
        }
        auto pf = pending_fetch_.find(rx.object_id);
        if (!splice_class && pf != pending_fetch_.end() && !pf->second.empty()) {
          // Waiters still want the body: buffer it for them.
          rx.client = kInvalidConn;
          rx.job = 0;
          rx.mode = OriginRx::Mode::kStoreBody;
          continue;
        }
        if (pf != pending_fetch_.end()) {
          pending_fetch_.erase(pf);  // Nobody left to serve.
        }
        rx.mode = OriginRx::Mode::kDiscardBody;
        continue;
      }
      job->body_len = hdr.body_len;
      job->bytes.resize(kProxyResponseHeader);
      EncodeProxyResponseHeader(job->bytes.data(), hdr);
      if (splice_class) {
        // Splicing parks this origin conn until the job drains to the
        // client, so it is only safe when every job ahead of this one will
        // drain without waiting on another fetch — a not-ready job ahead may
        // have its fetch queued *behind us on this very conn* (coalesced
        // waiters are dispatched late), and splicing would deadlock.
        bool ahead_ready = true;
        for (const Job& j : client->jobs) {
          if (j.id == rx.job) {
            break;
          }
          if (!j.ready) {
            ahead_ready = false;
            break;
          }
        }
        if (!ahead_ready) {
          // Buffer the body instead (still a splice-class response, so keep
          // the path label and keep it out of the cache).
          job->path = Path::kSplice;
          rx.cache_on_store = false;
          rx.mode = OriginRx::Mode::kStoreBody;
          continue;
        }
        // Splice jobs are pumpable immediately: the header goes out from
        // job.bytes and splice_remaining keeps the job open until the body
        // has moved.
        if (job->ctx.trace_id != 0) {
          if (CausalTracer* ct = sim_->context().causal_sink()) {
            // Header landed; body bytes stream through Splice from here, so
            // origin_serve and proxy_send overlap for this class (the
            // interval-ends-here chain stays exact; see DESIGN.md §12).
            ct->Mark(job->ctx.trace_id, CausalEdge::kNetFromOrigin, sim_->Now());
          }
        }
        job->ready = true;
        job->splice = true;
        job->path = Path::kSplice;
        job->origin = conn;
        job->splice_remaining = hdr.body_len;
        rx.mode = OriginRx::Mode::kSpliceBody;
        PumpClient(rx.client, *client);
        if (rx.mode == OriginRx::Mode::kSpliceBody) {
          break;  // Splice in progress; resumes on origin data / send space.
        }
        continue;
      }
      job->path = Path::kStore;
      if (rx.remaining == 0) {
        if (job->ctx.trace_id != 0) {
          if (CausalTracer* ct = sim_->context().causal_sink()) {
            ct->Mark(job->ctx.trace_id, CausalEdge::kNetFromOrigin, sim_->Now());
          }
        }
        job->ready = true;
        cache_.Insert(rx.object_id, 0);
        ServeWaiters(rx.object_id, 0, nullptr, front->trace, front->span);
        pool_.PopFront(conn);
        PumpClient(rx.client, *client);
        continue;
      }
      // NOT ready yet: the job must hold the whole body before PumpClient
      // may send it, or a pump triggered elsewhere (send space, another
      // origin conn) would finish the job header-only and desync the client.
      rx.mode = OriginRx::Mode::kStoreBody;
      continue;
    }
    if (rx.mode == OriginRx::Mode::kStoreBody) {
      const size_t avail = stack_->RecvAvailable(conn);
      if (avail == 0) {
        break;
      }
      const size_t take = std::min<size_t>(avail, rx.remaining);
      const size_t old = rx.buf.size();
      rx.buf.resize(old + take);
      const size_t got = stack_->Recv(conn, rx.buf.data() + old, take);
      rx.buf.resize(old + got);
      rx.remaining -= static_cast<uint32_t>(got);
      if (rx.remaining > 0) {
        continue;  // Loop re-checks availability.
      }
      // Whole body buffered: cache it, hand it to the job, send.
      if (rx.cache_on_store) {
        cache_.Insert(rx.object_id, rx.body_len);
      }
      Client* client = nullptr;
      Job* job = nullptr;
      auto cit = clients_.find(rx.client);
      if (cit != clients_.end() && !cit->second.closing) {
        client = &cit->second;
        job = FindJob(*client, rx.job);
      }
      if (client != nullptr && job != nullptr) {
        if (job->ctx.trace_id != 0) {
          if (CausalTracer* ct = sim_->context().causal_sink()) {
            ct->Mark(job->ctx.trace_id, CausalEdge::kNetFromOrigin, sim_->Now());
          }
        }
        job->bytes.insert(job->bytes.end(), rx.buf.begin(), rx.buf.end());
        job->ready = true;
      } else if (rx.client != kInvalidConn) {
        ++discarded_responses_;  // Primary died mid-body; waiters may remain.
      }
      {
        OriginPool::Pending* front = pool_.Front(conn);
        ServeWaiters(rx.object_id, rx.body_len, rx.buf.data(),
                     front != nullptr ? front->trace : 0,
                     front != nullptr ? front->span : 0);
      }
      rx.buf.clear();
      rx.mode = OriginRx::Mode::kHeader;
      rx.cache_on_store = true;
      pool_.PopFront(conn);
      if (client != nullptr) {
        PumpClient(rx.client, *client);
      }
      continue;
    }
    if (rx.mode == OriginRx::Mode::kSpliceBody) {
      auto cit = clients_.find(rx.client);
      if (cit == clients_.end() || cit->second.closing) {
        rx.mode = OriginRx::Mode::kDiscardBody;
        continue;
      }
      PumpClient(rx.client, cit->second);
      if (rx.mode == OriginRx::Mode::kSpliceBody) {
        break;  // Still blocked on origin bytes or client send space.
      }
      continue;
    }
    // kDiscardBody: read and drop.
    const size_t avail = stack_->RecvAvailable(conn);
    if (avail == 0) {
      break;
    }
    const size_t take = std::min<size_t>(std::min<size_t>(avail, rx.remaining), scratch_.size());
    const size_t got = stack_->Recv(conn, scratch_.data(), take);
    rx.remaining -= static_cast<uint32_t>(got);
    if (rx.remaining == 0) {
      rx.mode = OriginRx::Mode::kHeader;
      pool_.PopFront(conn);
    }
  }
  rx.in_handler = false;
}

void ProxyServer::PumpClient(ConnId conn, Client& client) {
  if (client.closing) {
    return;
  }
  while (!client.jobs.empty()) {
    Job& job = client.jobs.front();
    if (!job.ready) {
      break;  // Head-of-line response still owed by cache-miss machinery.
    }
    if (job.sent < job.bytes.size()) {
      const size_t n =
          stack_->Send(conn, job.bytes.data() + job.sent, job.bytes.size() - job.sent);
      job.sent += n;
      if (job.sent < job.bytes.size()) {
        break;  // Resume on OnSendSpace.
      }
    }
    if (job.splice) {
      if (job.splice_remaining > 0) {
        const size_t moved = stack_->Splice(job.origin, conn, job.splice_remaining);
        if (moved == 0) {
          break;  // No origin bytes buffered or no client send space yet.
        }
        spliced_bytes_ += moved;
        job.splice_remaining -= static_cast<uint32_t>(moved);
        auto oit = origin_rx_.find(job.origin);
        if (oit != origin_rx_.end()) {
          oit->second.remaining -= static_cast<uint32_t>(moved);
        }
        if (job.splice_remaining > 0) {
          break;
        }
      }
      const ConnId origin = job.origin;
      pool_.PopFront(origin);
      auto oit = origin_rx_.find(origin);
      if (oit != origin_rx_.end()) {
        oit->second.mode = OriginRx::Mode::kHeader;
        oit->second.remaining = 0;
        oit->second.client = kInvalidConn;
      }
      FinishJob(conn, client, job);
      client.jobs.pop_front();
      // Further responses may already be buffered behind the spliced body.
      HandleOriginData(origin);
      continue;
    }
    FinishJob(conn, client, job);
    client.jobs.pop_front();
  }
  if (client.jobs.empty() && client.remote_closed && !client.closing) {
    client.closing = true;
    stack_->Close(conn);
  }
}

void ProxyServer::FinishJob(ConnId conn, Client& client, Job& job) {
  (void)client;
  ++responses_;
  switch (job.path) {
    case Path::kHit:
      ++responses_hit_;
      break;
    case Path::kStore:
      ++responses_store_;
      break;
    case Path::kSplice:
      ++responses_splice_;
      break;
  }
  const uint32_t body_len = job.body_len;
  if (tracer_ != nullptr) {
    tracer_->Record(sim_->Now(), conn, FlowEventType::kProxyResponse, job.request_id, body_len,
                    static_cast<uint64_t>(job.path));
  }
  if (job.ctx.trace_id != 0) {
    if (CausalTracer* ct = sim_->context().causal_sink()) {
      // Last response byte accepted by our stack: the proxy's work on this
      // request is over. Class is decided here, once — how the response was
      // finally produced.
      ct->Mark(job.ctx.trace_id, CausalEdge::kProxySend, sim_->Now());
      ct->EndSpan(job.ctx.trace_id, job.span, sim_->Now());
      RequestClass cls = RequestClass::kHit;
      if (job.was_coalesced) {
        cls = RequestClass::kCoalesced;
      } else if (job.path == Path::kStore) {
        cls = RequestClass::kStore;
      } else if (job.path == Path::kSplice) {
        cls = RequestClass::kSplice;
      }
      ct->SetClass(job.ctx.trace_id, cls);
    }
  }
}

void ProxyServer::ServeWaiters(uint32_t object_id, uint32_t body_len, const uint8_t* body,
                               uint64_t src_trace, uint32_t src_span) {
  auto it = pending_fetch_.find(object_id);
  if (it == pending_fetch_.end()) {
    return;
  }
  std::vector<Waiter> waiters = std::move(it->second);
  pending_fetch_.erase(it);
  for (const Waiter& w : waiters) {
    auto cit = clients_.find(w.client);
    if (cit == clients_.end() || cit->second.closing) {
      continue;
    }
    Job* job = FindJob(cit->second, w.job);
    if (job == nullptr) {
      continue;
    }
    if (job->ctx.trace_id != 0) {
      if (CausalTracer* ct = sim_->context().causal_sink()) {
        // The waiter's wall time since its last mark was spent parked on the
        // primary's fetch; the cross-trace link draws the fan-out arrow.
        ct->Mark(job->ctx.trace_id, CausalEdge::kCoalesceWait, sim_->Now());
        if (src_trace != 0) {
          ct->Link(src_trace, src_span, job->ctx.trace_id, job->span);
        }
      }
    }
    job->path = Path::kStore;
    job->body_len = body_len;
    job->bytes.resize(kProxyResponseHeader + body_len);
    EncodeProxyResponseHeader(
        job->bytes.data(),
        ProxyResponseHeader{kProxyStatusOk, job->request_id, body_len, job->ctx.trace_id});
    if (body_len > 0) {
      std::copy(body, body + body_len, job->bytes.begin() + kProxyResponseHeader);
    }
    job->ready = true;
    PumpClient(w.client, cit->second);
  }
}

void ProxyServer::FanOutWaiters(uint32_t object_id) {
  auto it = pending_fetch_.find(object_id);
  if (it == pending_fetch_.end()) {
    return;
  }
  std::vector<Waiter> waiters = std::move(it->second);
  pending_fetch_.erase(it);
  for (const Waiter& w : waiters) {
    auto cit = clients_.find(w.client);
    if (cit == clients_.end() || cit->second.closing) {
      continue;
    }
    Job* job = FindJob(cit->second, w.job);
    if (job == nullptr) {
      continue;
    }
    uint32_t fetch_span = 0;
    if (job->ctx.trace_id != 0) {
      if (CausalTracer* ct = sim_->context().causal_sink()) {
        // Waited on the primary fetch until its header revealed a spliced
        // body; from here the request runs its own fetch, so it is a store/
        // splice class request that merely *started* coalesced.
        ct->Mark(job->ctx.trace_id, CausalEdge::kCoalesceWait, sim_->Now());
        fetch_span = ct->StartSpan(job->ctx.trace_id, job->span, CausalSpanKind::kOriginFetch,
                                   sim_->Now(), object_id, job->request_id);
      }
    }
    job->was_coalesced = false;
    pool_.Dispatch(OriginPool::Pending{object_id, job->request_id, w.client, w.job,
                                       job->ctx.trace_id, fetch_span});
  }
}

ProxyServer::Job* ProxyServer::FindJob(Client& client, uint64_t job_id) {
  for (Job& job : client.jobs) {
    if (job.id == job_id) {
      return &job;
    }
  }
  return nullptr;
}

void ProxyServer::AbortClient(ConnId conn, Client& client) {
  client.closing = true;
  ++aborted_clients_;
  stack_->Close(conn);
}

void ProxyServer::DetachClientJobs(ConnId conn, Client& client) {
  (void)conn;
  for (Job& job : client.jobs) {
    if (job.splice && job.splice_remaining > 0 && job.origin != kInvalidConn) {
      auto oit = origin_rx_.find(job.origin);
      if (oit != origin_rx_.end() && oit->second.mode == OriginRx::Mode::kSpliceBody &&
          oit->second.job == job.id) {
        oit->second.mode = OriginRx::Mode::kDiscardBody;
        oit->second.client = kInvalidConn;
        HandleOriginData(job.origin);
      }
    }
  }
  client.jobs.clear();
}

}  // namespace tas
