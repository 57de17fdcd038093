// ProxyServer: HTTP-style reverse proxy on the Stack interface (DESIGN.md
// §11). Clients connect keep-alive and pipeline fixed-header GET requests;
// the proxy answers each from its HotObjectCache or forwards it to the
// origin tier through a bounded OriginPool.
//
// Per client connection, responses are a FIFO of jobs so pipelined requests
// are answered in request order regardless of cache/origin completion order:
//   - hit:   body synthesized from the cache, buffered, sent (hit cycles).
//   - store: small miss — body copied out of the origin conn, inserted into
//            the cache, then sent like a hit (miss cycles).
//   - splice: large miss — the 12B response header is buffered, but the body
//            is moved client<-origin with Stack::Splice, which on TAS skips
//            the user-space copy charge entirely (the paper's shared payload
//            buffers make forwarding an in-stack pointer move).
//
// Half-close (satellite of this PR): a client that sends its FIN after its
// last request still gets every owed response — the proxy keeps transmitting
// on the half-open connection and closes only once its job queue drains.
#ifndef SRC_PROXY_PROXY_SERVER_H_
#define SRC_PROXY_PROXY_SERVER_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "src/baseline/stack_iface.h"
#include "src/proxy/object_cache.h"
#include "src/proxy/origin_pool.h"
#include "src/sim/simulator.h"
#include "src/trace/causal.h"
#include "src/trace/flow_tracer.h"
#include "src/trace/metric_registry.h"
#include "src/trace/tracer.h"

namespace tas {

struct ProxyServerConfig {
  uint16_t listen_port = 80;
  OriginPoolConfig pool;
  size_t cache_bytes = 1 << 20;
  // Response bodies at least this large are spliced client<-origin and
  // bypass the cache; smaller bodies are copied through, cached, and served
  // from memory next time. 0 splices everything; SIZE_MAX splices nothing.
  uint32_t splice_min_body = 16 * 1024;
};

class ProxyServer : public AppHandler {
 public:
  ProxyServer(Simulator* sim, Stack* stack, const ProxyServerConfig& config);

  void Start();

  // Registers proxy.* counters/gauges (cache, pool, splice, requests).
  void RegisterMetrics(MetricRegistry& registry);
  // Optional: emit kProxyRequest/kProxyResponse flow events (client flow id).
  void set_flow_tracer(FlowTracer* tracer) { tracer_ = tracer; }

  const HotObjectCache& cache() const { return cache_; }
  const OriginPool& pool() const { return pool_; }
  uint64_t requests() const { return requests_; }
  uint64_t responses() const { return responses_; }
  uint64_t coalesced_requests() const { return coalesced_requests_; }
  uint64_t spliced_bytes() const { return spliced_bytes_; }
  uint64_t aborted_clients() const { return aborted_clients_; }
  size_t live_clients() const { return clients_.size(); }

  // AppHandler:
  void OnConnected(ConnId conn, bool success) override;
  void OnAccepted(ConnId conn, uint16_t port) override;
  void OnData(ConnId conn, size_t bytes) override;
  void OnSendSpace(ConnId conn, size_t bytes) override;
  void OnRemoteClosed(ConnId conn) override;
  void OnClosed(ConnId conn) override;

 private:
  // Response path taken, for tracing and the per-path counters.
  enum class Path : uint8_t { kHit = 0, kStore = 1, kSplice = 2 };

  struct Job {
    uint64_t id = 0;
    uint32_t object_id = 0;
    uint32_t request_id = 0;
    bool ready = false;    // Response known (hit, or origin header arrived).
    bool splice = false;   // Body is forwarded via Stack::Splice.
    Path path = Path::kHit;
    ConnId origin = kInvalidConn;  // Splice source while in flight.
    uint32_t body_len = 0;
    uint32_t splice_remaining = 0;
    std::vector<uint8_t> bytes;  // Header (+ body for buffered jobs).
    size_t sent = 0;             // Bytes of `bytes` handed to the stack.
    // Causal tracing (DESIGN.md §12): the request's TraceContext off the
    // wire, this job's span, and whether the response came off someone
    // else's fetch (class "coalesced"; FanOutWaiters resets the flag).
    TraceContext ctx;
    uint32_t span = 0;
    bool was_coalesced = false;
  };

  struct Client {
    std::vector<uint8_t> inbuf;  // Partial request bytes.
    std::deque<Job> jobs;        // FIFO: responses go out in request order.
    bool remote_closed = false;  // Client FIN seen; flush then close.
    bool closing = false;        // We issued Close().
  };

  // Per-origin-connection response reassembly state machine.
  struct OriginRx {
    enum class Mode : uint8_t { kHeader, kStoreBody, kSpliceBody, kDiscardBody };
    Mode mode = Mode::kHeader;
    std::vector<uint8_t> buf;  // Header accumulation, then store body.
    uint32_t body_len = 0;
    uint32_t remaining = 0;  // Body bytes still owed by the origin.
    uint32_t object_id = 0;
    ConnId client = kInvalidConn;
    uint64_t job = 0;
    // False for a splice-class body buffered only to dodge a pipeline
    // deadlock: it must not pollute the cache.
    bool cache_on_store = true;
    bool in_handler = false;  // Re-entrancy guard for HandleOriginData.
  };

  // A request coalesced onto an already-in-flight fetch of the same object
  // (single-flight): it is answered from that fetch's body when it lands.
  struct Waiter {
    ConnId client = kInvalidConn;
    uint64_t job = 0;
  };

  void HandleClientData(ConnId conn, Client& client);
  void HandleOriginData(ConnId conn);
  // Serves every waiter of `object_id` from `body` and retires the fetch.
  // `src_trace`/`src_span` identify the primary fetch that produced the body
  // (Perfetto flow arrows between the primary and its waiters).
  void ServeWaiters(uint32_t object_id, uint32_t body_len, const uint8_t* body,
                    uint64_t src_trace, uint32_t src_span);
  // Splice-class object: waiters cannot share the spliced body — give each
  // its own origin fetch instead.
  void FanOutWaiters(uint32_t object_id);
  // Sends what it can of the client's job queue; closes the conn when the
  // queue drains after a client FIN.
  void PumpClient(ConnId conn, Client& client);
  void FinishJob(ConnId conn, Client& client, Job& job);
  Job* FindJob(Client& client, uint64_t job_id);
  void AbortClient(ConnId conn, Client& client);
  void DetachClientJobs(ConnId conn, Client& client);

  Simulator* sim_;
  Stack* stack_;
  ProxyServerConfig config_;
  HotObjectCache cache_;
  OriginPool pool_;
  std::unordered_map<ConnId, Client> clients_;
  std::unordered_map<ConnId, OriginRx> origin_rx_;
  // object_id -> waiters coalesced onto the in-flight fetch (single-flight:
  // an entry exists exactly while one origin fetch for the object is out).
  std::unordered_map<uint32_t, std::vector<Waiter>> pending_fetch_;
  std::vector<uint8_t> scratch_;
  FlowTracer* tracer_ = nullptr;
  uint64_t next_job_id_ = 1;

  uint64_t requests_ = 0;
  uint64_t responses_ = 0;
  uint64_t responses_hit_ = 0;
  uint64_t responses_store_ = 0;
  uint64_t responses_splice_ = 0;
  uint64_t spliced_bytes_ = 0;
  uint64_t coalesced_requests_ = 0;   // Misses folded onto an in-flight fetch.
  uint64_t discarded_responses_ = 0;  // Responses whose client vanished.
  uint64_t aborted_clients_ = 0;      // Mid-splice origin death aborts.
  uint64_t mismatched_responses_ = 0;
};

}  // namespace tas

#endif  // SRC_PROXY_PROXY_SERVER_H_
