// ProxyClientGen: closed-loop load generator for the reverse-proxy tier.
//
// Drives `concurrency` keep-alive connections, each pipelining GET requests
// for zipf-popular objects (ZipfGenerator). Because body sizes are a pure
// function of the object id, the client verifies every response: request ids
// must come back in per-connection FIFO order, body lengths must match, and
// a global responded-set catches duplicates — together the exactly-once
// check the chaos tests gate on.
//
// Churn mode (total_connections > 0): each connection issues
// requests_per_connection requests and then ends — with half_close set it
// sends its FIN immediately after the last request and keeps reading owed
// responses on the half-open connection (exercising the proxy's graceful
// half-close path); otherwise it closes after the last response. Finished
// connections are replaced until the total budget is spent. Requests
// stranded on a dead connection (proxy abort, faults) are retried with a
// fresh request id, so every logical request eventually completes.
#ifndef SRC_PROXY_PROXY_CLIENT_H_
#define SRC_PROXY_PROXY_CLIENT_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "src/baseline/stack_iface.h"
#include "src/proxy/proxy_wire.h"
#include "src/sim/simulator.h"
#include "src/trace/causal.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/zipf.h"

namespace tas {

struct ProxyClientConfig {
  IpAddr proxy_ip = 0;
  uint16_t proxy_port = 80;
  size_t concurrency = 16;  // Connections open at once.
  // 0 = keep-alive forever (no churn). Otherwise the total connection
  // budget; finished connections are replaced until it is spent.
  size_t total_connections = 0;
  // Requests per connection in churn mode (ignored when total_connections
  // is 0, where connections issue forever).
  size_t requests_per_connection = 8;
  // FIN right after the last request, then read responses half-open.
  bool half_close = true;
  size_t pipeline_depth = 4;  // Requests in flight per connection.
  size_t num_objects = 10000;
  double zipf_skew = 0.9;
  // Must match the origin's body parameters for verification.
  uint32_t min_body_bytes = 64;
  uint32_t body_spread = 8 * 1024;
  uint64_t rng_seed = 42;
  TimeNs connect_spread = Ms(1);
  TimeNs first_request_at = 0;  // Hold traffic until this absolute time.
};

class ProxyClientGen : public AppHandler {
 public:
  ProxyClientGen(Simulator* sim, Stack* stack, const ProxyClientConfig& config);

  void Start();
  void BeginMeasurement();

  // Logical requests: retries keep the identity of the request they replace.
  uint64_t issued() const { return issued_; }
  uint64_t completed() const { return completed_; }
  uint64_t retries() const { return retries_; }
  uint64_t reconnects() const { return reconnects_; }
  uint64_t connect_failures() const { return connect_failures_; }
  // Verification failures — all must stay 0 in a healthy run.
  uint64_t duplicates() const { return duplicates_; }
  uint64_t mismatches() const { return mismatches_; }
  uint64_t bad_bodies() const { return bad_bodies_; }
  // Response carried a trace id that does not echo the request's (0 when
  // tracing is off — untraced requests expect an untraced echo too).
  uint64_t trace_mismatches() const { return trace_mismatches_; }
  double Throughput() const;  // Responses/sec since BeginMeasurement().
  const LatencyRecorder& latency() const { return latency_; }

  // AppHandler:
  void OnConnected(ConnId conn, bool success) override;
  void OnData(ConnId conn, size_t bytes) override;
  void OnSendSpace(ConnId conn, size_t bytes) override;
  void OnRemoteClosed(ConnId conn) override;
  void OnClosed(ConnId conn) override;

 private:
  struct PendingReq {
    uint32_t object_id = 0;
    uint32_t request_id = 0;
    TimeNs sent_at = 0;
    // Causal trace minted for this request (0 when tracing is off).
    uint64_t trace_id = 0;
    uint32_t root_span = 0;
  };

  struct CState {
    std::deque<PendingReq> inflight;  // FIFO; responses answer in order.
    size_t issued = 0;                // Logical requests started on this conn.
    bool connected = false;
    bool fin_sent = false;
    bool started = false;  // Past first_request_at gate.
    // Response parse state.
    uint8_t header[kProxyResponseHeader];
    size_t header_have = 0;
    uint32_t body_remaining = 0;
    bool in_body = false;
  };

  void OpenConnection(TimeNs delay);
  void MaybeSend(ConnId conn, CState& state);
  void HandleResponseData(ConnId conn, CState& state);
  void CompleteResponse(ConnId conn, CState& state);
  // Push a dead connection's unanswered requests onto the retry queue and
  // find (or open) a connection to carry them.
  void RetryInflight(CState& state);
  uint32_t ExpectedBody(uint32_t object_id) const;

  Simulator* sim_;
  Stack* stack_;
  ProxyClientConfig config_;
  Rng rng_;
  ZipfGenerator zipf_;
  std::unordered_map<ConnId, CState> conns_;
  std::deque<uint32_t> retry_queue_;  // Object ids awaiting re-issue.
  std::unordered_set<uint32_t> responded_;  // Exactly-once set (request ids).
  std::vector<uint8_t> scratch_;
  size_t conns_opened_ = 0;
  uint32_t next_request_id_ = 1;
  uint64_t issued_ = 0;
  uint64_t completed_ = 0;
  uint64_t retries_ = 0;
  uint64_t reconnects_ = 0;
  uint64_t connect_failures_ = 0;
  uint64_t duplicates_ = 0;
  uint64_t mismatches_ = 0;
  uint64_t bad_bodies_ = 0;
  uint64_t trace_mismatches_ = 0;
  bool measuring_ = false;
  TimeNs measure_start_ = 0;
  uint64_t completed_at_measure_start_ = 0;
  LatencyRecorder latency_;
};

}  // namespace tas

#endif  // SRC_PROXY_PROXY_CLIENT_H_
