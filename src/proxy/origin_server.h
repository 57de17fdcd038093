// OriginServer: the backing tier behind the reverse proxy. Serves every
// object GET with a deterministic zero-filled body whose size is a pure
// function of the object id (proxy_wire.h), so the proxy cache and the
// client verifier can both predict response sizes without metadata.
//
// Requests on a connection are answered strictly in order — the contract the
// OriginPool's pipelined FIFO matching relies on. With close_after_requests
// set, the origin closes each connection after that many responses (flushing
// them first), forcing pool connection churn for the chaos tests.
#ifndef SRC_PROXY_ORIGIN_SERVER_H_
#define SRC_PROXY_ORIGIN_SERVER_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "src/baseline/stack_iface.h"
#include "src/sim/simulator.h"

namespace tas {

struct OriginServerConfig {
  uint16_t port = 8080;
  uint32_t min_body_bytes = 64;
  uint32_t body_spread = 8 * 1024;  // Body = min + hash(id) % spread.
  uint64_t app_cycles_per_request = 300;
  // >0: close each accepted connection after serving this many requests
  // (responses flush before the FIN — graceful close). 0 = keep-alive.
  uint32_t close_after_requests = 0;
};

class OriginServer : public AppHandler {
 public:
  OriginServer(Simulator* sim, Stack* stack, const OriginServerConfig& config);

  void Start();

  uint64_t requests_served() const { return requests_served_; }
  uint64_t conns_closed_by_quota() const { return conns_closed_by_quota_; }
  uint32_t BodyBytes(uint32_t object_id) const;

  // AppHandler:
  void OnAccepted(ConnId conn, uint16_t port) override;
  void OnData(ConnId conn, size_t bytes) override;
  void OnSendSpace(ConnId conn, size_t bytes) override;
  void OnRemoteClosed(ConnId conn) override;
  void OnClosed(ConnId conn) override;

 private:
  // Causal-trace bookkeeping for one queued response: when `outbox_off`
  // crosses `end_off`, the response has been fully accepted by our stack and
  // the serve span/edge closes (DESIGN.md §12).
  struct OutMsg {
    size_t end_off = 0;
    uint64_t trace = 0;
    uint32_t span = 0;
  };

  struct ConnState {
    std::vector<uint8_t> inbuf;   // Partial request bytes.
    std::vector<uint8_t> outbox;  // Response bytes not yet accepted by the stack.
    size_t outbox_off = 0;
    std::deque<OutMsg> out_msgs;  // Traced responses still in the outbox.
    uint32_t served = 0;
    bool closing = false;     // Quota reached or peer FIN'd; no new requests.
    bool close_sent = false;  // Close() already issued.
  };

  void Flush(ConnId conn, ConnState& state);

  Simulator* sim_;
  Stack* stack_;
  OriginServerConfig config_;
  std::unordered_map<ConnId, ConnState> conns_;
  uint64_t requests_served_ = 0;
  uint64_t conns_closed_by_quota_ = 0;
};

}  // namespace tas

#endif  // SRC_PROXY_ORIGIN_SERVER_H_
