// RPC echo benchmark applications (paper §5.1).
//
// EchoServer answers fixed-size RPCs after an optional simulated app-compute
// delay; it can also run one-directional for the pipelined RX/TX experiment
// (Fig 6: server only receives, or only transmits). EchoClient drives it
// closed-loop with a configurable pipeline depth per connection, optional
// short-lived-connection mode (reconnect after N messages, Fig 5), and
// records per-RPC latency.
#ifndef SRC_APP_RPC_ECHO_H_
#define SRC_APP_RPC_ECHO_H_

#include <deque>
#include <unordered_map>
#include <vector>

#include "src/baseline/stack_iface.h"
#include "src/sim/simulator.h"
#include "src/util/stats.h"

namespace tas {

struct EchoServerConfig {
  uint16_t port = 7777;
  size_t request_bytes = 64;
  size_t response_bytes = 64;
  uint64_t app_cycles = 680;  // Per-request compute (Table 1 App row basis).
  // Fig 6 modes: kEcho answers each request; kRxOnly consumes without
  // replying; kTxOnly streams responses continuously without requests.
  enum class Mode { kEcho, kRxOnly, kTxOnly } mode = Mode::kEcho;
};

class EchoServer : public AppHandler {
 public:
  EchoServer(Simulator* sim, Stack* stack, const EchoServerConfig& config);

  void Start();

  uint64_t requests_served() const { return requests_served_; }

  // AppHandler:
  void OnAccepted(ConnId conn, uint16_t port) override;
  void OnData(ConnId conn, size_t bytes) override;
  void OnSendSpace(ConnId conn, size_t bytes) override;
  void OnRemoteClosed(ConnId conn) override;
  void OnClosed(ConnId conn) override;

 private:
  void PumpTx(ConnId conn);

  Simulator* sim_;
  Stack* stack_;
  EchoServerConfig config_;
  uint64_t requests_served_ = 0;
  std::unordered_map<ConnId, size_t> pending_bytes_;
  std::vector<uint8_t> scratch_;
};

struct EchoClientConfig {
  IpAddr server_ip = 0;
  uint16_t server_port = 7777;
  size_t num_connections = 1;
  size_t request_bytes = 64;
  size_t response_bytes = 64;
  size_t pipeline_depth = 1;  // Requests in flight per connection.
  // Short-lived connections (Fig 5): close and reconnect after this many
  // request/response exchanges. 0 = connections live forever.
  size_t messages_per_connection = 0;
  // Fig 6 one-directional modes must match the server's.
  EchoServerConfig::Mode mode = EchoServerConfig::Mode::kEcho;
  // Ramp connection establishment to avoid a SYN storm at t=0.
  TimeNs connect_spread = Ms(1);
  // Absolute sim time before which connections stay quiet after opening
  // (lets large experiments pre-establish connections without simulating
  // hours of warmup traffic). 0 = send immediately on connect.
  TimeNs first_request_at = 0;
};

class EchoClient : public AppHandler {
 public:
  EchoClient(Simulator* sim, Stack* stack, const EchoClientConfig& config);

  void Start();
  // Starts/zeroes measurement counters (call after warmup).
  void BeginMeasurement();

  uint64_t completed() const { return completed_; }
  double Throughput() const;  // Operations/sec since BeginMeasurement.
  const LatencyRecorder& latency() const { return latency_; }
  uint64_t reconnects() const { return reconnects_; }

  // AppHandler:
  void OnConnected(ConnId conn, bool success) override;
  void OnData(ConnId conn, size_t bytes) override;
  void OnSendSpace(ConnId conn, size_t bytes) override;
  void OnRemoteClosed(ConnId conn) override;
  void OnClosed(ConnId conn) override;

 private:
  struct ConnState {
    size_t received = 0;             // Bytes toward the current response.
    size_t messages_done = 0;
    std::deque<TimeNs> send_times;   // Outstanding request timestamps.
  };

  void OpenConnection();
  void SendRequest(ConnId conn);
  void Reconnect(ConnId conn);

  Simulator* sim_;
  Stack* stack_;
  EchoClientConfig config_;
  std::unordered_map<ConnId, ConnState> conns_;
  std::vector<uint8_t> request_;
  uint64_t completed_ = 0;
  uint64_t reconnects_ = 0;
  bool measuring_ = false;
  TimeNs measure_start_ = 0;
  uint64_t completed_at_measure_start_ = 0;
  LatencyRecorder latency_;
};

}  // namespace tas

#endif  // SRC_APP_RPC_ECHO_H_
