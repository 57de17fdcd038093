// Quickstart: two hosts on a simulated 10G link, the server accelerated by
// TAS, the client on the Linux-model stack — the simplest end-to-end use of
// the public API. Demonstrates:
//   1. building a topology and hosts (Experiment),
//   2. the Stack interface (Listen/Connect/Send/Recv + AppHandler callbacks),
//   3. TAS interoperating with a conventional TCP peer (paper Table 4),
//   4. reading TAS's fast-path statistics afterwards.
//
// Run: ./build/examples/quickstart
#include <cstdio>
#include <string>

#include "src/harness/experiment.h"
#include "src/harness/table.h"

namespace {

using namespace tas;

// A tiny request/response server: upper-cases whatever it receives.
class UppercaseServer : public AppHandler {
 public:
  UppercaseServer(Stack* stack, uint16_t port) : stack_(stack), port_(port) {}

  void Start() {
    stack_->SetHandler(this);
    stack_->Listen(port_);
  }

  void OnAccepted(ConnId conn, uint16_t) override {
    std::printf("[server] accepted connection %llu\n",
                static_cast<unsigned long long>(conn));
  }

  void OnData(ConnId conn, size_t bytes) override {
    std::string buf(bytes, '\0');
    const size_t n = stack_->Recv(conn, reinterpret_cast<uint8_t*>(buf.data()), bytes);
    buf.resize(n);
    for (char& c : buf) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    stack_->Send(conn, reinterpret_cast<const uint8_t*>(buf.data()), buf.size());
  }

  void OnRemoteClosed(ConnId conn) override { stack_->Close(conn); }

 private:
  Stack* stack_;
  uint16_t port_;
};

class GreetingClient : public AppHandler {
 public:
  GreetingClient(Simulator* sim, Stack* stack, IpAddr server, uint16_t port)
      : sim_(sim), stack_(stack), server_(server), port_(port) {}

  void Start() {
    stack_->SetHandler(this);
    conn_ = stack_->Connect(server_, port_);
  }

  void OnConnected(ConnId conn, bool success) override {
    std::printf("[client] connected=%d after %.1f us\n", success, ToUs(sim_->Now()));
    if (success) {
      sent_at_ = sim_->Now();
      const std::string msg = "hello, tcp acceleration as a service!";
      stack_->Send(conn, reinterpret_cast<const uint8_t*>(msg.data()), msg.size());
    }
  }

  void OnData(ConnId conn, size_t bytes) override {
    std::string buf(bytes, '\0');
    stack_->Recv(conn, reinterpret_cast<uint8_t*>(buf.data()), bytes);
    std::printf("[client] reply after %.1f us RTT: %s\n", ToUs(sim_->Now() - sent_at_),
                buf.c_str());
    stack_->Close(conn);
    done_ = true;
  }

  bool done() const { return done_; }

 private:
  Simulator* sim_;
  Stack* stack_;
  IpAddr server_;
  uint16_t port_;
  ConnId conn_ = kInvalidConn;
  TimeNs sent_at_ = 0;
  bool done_ = false;
};

}  // namespace

int main() {
  using namespace tas;

  // Server: TAS with 2 application cores and 2 fast-path cores.
  HostSpec server_spec;
  server_spec.stack = StackKind::kTas;
  server_spec.app_cores = 2;
  server_spec.stack_cores = 2;

  // Client: the Linux-model stack — TAS is wire-compatible with normal TCP.
  HostSpec client_spec;
  client_spec.stack = StackKind::kLinux;

  LinkConfig link;
  link.gbps = 10.0;
  link.propagation_delay = Us(2);
  auto exp = Experiment::PointToPoint(server_spec, client_spec, link);

  UppercaseServer server(exp->host(0).stack(), 4242);
  GreetingClient client(&exp->sim(), exp->host(1).stack(), exp->host(0).ip(), 4242);
  server.Start();
  client.Start();

  exp->sim().RunUntil(Sec(1));
  if (!client.done()) {
    std::printf("ERROR: request did not complete\n");
    return 1;
  }

  const TasStats& stats = exp->host(0).tas()->stats();
  std::printf("\nTAS server statistics:\n");
  std::printf("  connections established: %llu\n",
              static_cast<unsigned long long>(stats.connections_established));
  std::printf("  fast-path packets rx/tx: %llu/%llu\n",
              static_cast<unsigned long long>(stats.fastpath_rx_packets),
              static_cast<unsigned long long>(stats.fastpath_tx_packets));
  std::printf("  slow-path exceptions:    %llu (handshake + teardown only)\n",
              static_cast<unsigned long long>(stats.exceptions));
  std::printf("  sim events executed:     %llu\n",
              static_cast<unsigned long long>(exp->sim().events_executed()));
  return 0;
}
