// Graceful half-close on TAS (paper §2: TCP termination is a slow-path
// concern, but a FIN only ends one direction). A peer that closes its send
// side must still receive everything the other side owes it: the receiving
// flow keeps transmitting from kCloseWait (still fast-path eligible), and
// the FIN'd side keeps consuming data in kFinWait1/2. libTAS surfaces the
// peer's FIN as OnRemoteClosed and full termination as OnClosed, in that
// order.
//
// Payload storage follows the stream: each flow frees its TX ring once its
// FIN is acked and its RX ring once the peer's FIN is consumed and the app
// has read every byte, while the flow itself lives on through FIN_WAIT_2,
// CLOSE_WAIT and TIME_WAIT.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/fault/impairment.h"
#include "src/harness/experiment.h"

namespace tas {
namespace {

LinkConfig TestLink() {
  LinkConfig link;
  link.gbps = 10.0;
  link.propagation_delay = Us(2);
  link.queue_limit_pkts = 256;
  return link;
}

HostSpec TasSpec() {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  return spec;
}

// Server: consumes the request, and once the client half-closes, answers
// with `response_bytes` on the half-open connection, then closes.
class HalfCloseServer : public AppHandler {
 public:
  HalfCloseServer(Stack* stack, uint16_t port, size_t response_bytes)
      : stack_(stack), port_(port), response_bytes_(response_bytes) {}

  void Start() {
    stack_->SetHandler(this);
    stack_->Listen(port_);
  }

  void OnAccepted(ConnId conn, uint16_t) override { conn_ = conn; }
  void OnData(ConnId conn, size_t bytes) override {
    std::vector<uint8_t> buf(bytes);
    received_ += stack_->Recv(conn, buf.data(), bytes);
  }
  void OnRemoteClosed(ConnId conn) override {
    ++remote_closed_;
    remote_closed_seq_ = ++event_seq_;
    // The interesting part: transmit *after* the peer's FIN.
    std::vector<uint8_t> body(response_bytes_, 0xAB);
    size_t sent = 0;
    while (sent < body.size()) {
      const size_t n = stack_->Send(conn, body.data() + sent, body.size() - sent);
      if (n == 0) {
        break;
      }
      sent += n;
    }
    response_sent_ = sent;
    stack_->Close(conn);
  }
  void OnClosed(ConnId) override {
    ++fully_closed_;
    closed_seq_ = ++event_seq_;
  }

  Stack* stack_;
  uint16_t port_;
  size_t response_bytes_;
  ConnId conn_ = kInvalidConn;
  size_t received_ = 0;
  size_t response_sent_ = 0;
  int remote_closed_ = 0;
  int fully_closed_ = 0;
  int event_seq_ = 0;
  int remote_closed_seq_ = 0;
  int closed_seq_ = 0;
};

// Client: writes a small request, immediately closes its direction, and
// keeps reading the response on the half-open connection.
class HalfCloseClient : public AppHandler {
 public:
  HalfCloseClient(Stack* stack, IpAddr server, uint16_t port) : stack_(stack), server_(server), port_(port) {}

  void Start() {
    stack_->SetHandler(this);
    conn_ = stack_->Connect(server_, port_);
  }

  void OnConnected(ConnId conn, bool success) override {
    ASSERT_TRUE(success);
    uint8_t req[12] = {1};
    ASSERT_EQ(stack_->Send(conn, req, sizeof(req)), sizeof(req));
    stack_->Close(conn);  // FIN rides out right behind the request.
  }
  void OnData(ConnId conn, size_t bytes) override {
    std::vector<uint8_t> buf(bytes);
    const size_t n = stack_->Recv(conn, buf.data(), bytes);
    for (size_t i = 0; i < n; ++i) {
      if (buf[i] != 0xAB) {
        ++corrupt_;
      }
    }
    received_ += n;
  }
  void OnRemoteClosed(ConnId) override {
    ++remote_closed_;
    remote_closed_seq_ = ++event_seq_;
  }
  void OnClosed(ConnId) override {
    ++fully_closed_;
    closed_seq_ = ++event_seq_;
  }

  Stack* stack_;
  IpAddr server_;
  uint16_t port_;
  ConnId conn_ = kInvalidConn;
  size_t received_ = 0;
  size_t corrupt_ = 0;
  int remote_closed_ = 0;
  int fully_closed_ = 0;
  int event_seq_ = 0;
  int remote_closed_seq_ = 0;
  int closed_seq_ = 0;
};

TEST(HalfCloseTest, ResponseFlowsAfterClientFin) {
  auto exp = Experiment::PointToPoint(TasSpec(), TasSpec(), TestLink());
  const size_t kResponse = 48 * 1024;  // Under the 64KB buffers.
  HalfCloseServer server(exp->host(0).stack(), 7000, kResponse);
  HalfCloseClient client(exp->host(1).stack(), exp->host(0).ip(), 7000);
  server.Start();
  client.Start();
  exp->sim().RunUntil(Sec(5));

  EXPECT_EQ(server.received_, 12u);
  EXPECT_EQ(server.remote_closed_, 1);
  EXPECT_EQ(server.response_sent_, kResponse);
  // The whole response crossed the half-open connection.
  EXPECT_EQ(client.received_, kResponse);
  EXPECT_EQ(client.corrupt_, 0u);
  // OnRemoteClosed strictly precedes OnClosed on both sides.
  EXPECT_EQ(client.remote_closed_, 1);
  EXPECT_EQ(client.fully_closed_, 1);
  EXPECT_LT(client.remote_closed_seq_, client.closed_seq_);
  EXPECT_EQ(server.fully_closed_, 1);
  EXPECT_LT(server.remote_closed_seq_, server.closed_seq_);
}

// Close() with unacked data still queued in the stack: the FIN must
// sequence after the data, so the receiver sees every byte, then the FIN.
class FloodAndCloseClient : public AppHandler {
 public:
  FloodAndCloseClient(Stack* stack, IpAddr server, uint16_t port)
      : stack_(stack), server_(server), port_(port) {}

  void Start() {
    stack_->SetHandler(this);
    stack_->Connect(server_, port_);
  }
  void OnConnected(ConnId conn, bool success) override {
    ASSERT_TRUE(success);
    // Stuff the send buffer to the brim, then close with it all pending.
    std::vector<uint8_t> chunk(4096);
    for (size_t i = 0; i < chunk.size(); ++i) {
      chunk[i] = static_cast<uint8_t>(i % 251);
    }
    size_t n;
    while ((n = stack_->Send(conn, chunk.data(), chunk.size())) > 0) {
      sent_ += n;
    }
    stack_->Close(conn);
  }
  void OnClosed(ConnId) override { ++fully_closed_; }

  Stack* stack_;
  IpAddr server_;
  uint16_t port_;
  size_t sent_ = 0;
  int fully_closed_ = 0;
};

class CountingServer : public AppHandler {
 public:
  CountingServer(Stack* stack, uint16_t port) : stack_(stack), port_(port) {}
  void Start() {
    stack_->SetHandler(this);
    stack_->Listen(port_);
  }
  void OnData(ConnId conn, size_t bytes) override {
    std::vector<uint8_t> buf(bytes);
    received_ += stack_->Recv(conn, buf.data(), bytes);
  }
  void OnRemoteClosed(ConnId conn) override {
    received_at_fin_ = received_;
    ++remote_closed_;
    stack_->Close(conn);
  }
  void OnClosed(ConnId) override { ++fully_closed_; }

  Stack* stack_;
  uint16_t port_;
  size_t received_ = 0;
  size_t received_at_fin_ = 0;
  int remote_closed_ = 0;
  int fully_closed_ = 0;
};

TEST(HalfCloseTest, CloseWithDataPendingFlushesFirst) {
  auto exp = Experiment::PointToPoint(TasSpec(), TasSpec(), TestLink());
  CountingServer server(exp->host(0).stack(), 7001);
  FloodAndCloseClient client(exp->host(1).stack(), exp->host(0).ip(), 7001);
  server.Start();
  client.Start();
  exp->sim().RunUntil(Sec(5));

  EXPECT_GT(client.sent_, 0u);
  EXPECT_EQ(server.received_, client.sent_);
  // Every queued byte had been delivered by the time the FIN surfaced.
  EXPECT_EQ(server.received_at_fin_, client.sent_);
  EXPECT_EQ(server.remote_closed_, 1);
  EXPECT_EQ(server.fully_closed_, 1);
  EXPECT_EQ(client.fully_closed_, 1);
}

// --- Payload storage follows the stream --------------------------------------

uint8_t RequestByte(size_t i) { return static_cast<uint8_t>((i * 7 + 3) % 251); }
uint8_t ResponseByte(size_t i) { return static_cast<uint8_t>(i % 253); }

// Sends `total` bytes of fill(i) on `conn` as send space allows; closes the
// connection once the last byte is queued.
class PatternWriter {
 public:
  PatternWriter(Stack* stack, uint8_t (*fill)(size_t)) : stack_(stack), fill_(fill) {}

  void Start(ConnId conn, size_t total) {
    conn_ = conn;
    total_ = total;
    Pump();
  }
  void Pump() {
    if (conn_ == kInvalidConn) {
      return;  // Not started.
    }
    uint8_t chunk[4096];
    while (sent_ < total_) {
      const size_t want = std::min(sizeof(chunk), total_ - sent_);
      for (size_t i = 0; i < want; ++i) {
        chunk[i] = fill_(sent_ + i);
      }
      const size_t n = stack_->Send(conn_, chunk, want);
      sent_ += n;
      if (n < want) {
        return;
      }
    }
    if (!closed_) {
      closed_ = true;
      stack_->Close(conn_);
    }
  }
  size_t sent() const { return sent_; }

 private:
  Stack* stack_;
  uint8_t (*fill_)(size_t);
  ConnId conn_ = kInvalidConn;
  size_t total_ = 0;
  size_t sent_ = 0;
  bool closed_ = false;
};

// Reads everything available on `conn` into `out`.
void DrainInto(Stack* stack, ConnId conn, std::vector<uint8_t>* out) {
  uint8_t buf[4096];
  size_t n;
  while ((n = stack->Recv(conn, buf, sizeof(buf))) > 0) {
    out->insert(out->end(), buf, buf + n);
  }
}

// Client: streams a request, closes its direction behind it, and reads the
// response on the half-open connection.
class RequestThenReadClient : public AppHandler {
 public:
  RequestThenReadClient(Stack* stack, size_t request_bytes)
      : stack_(stack), writer_(stack, RequestByte), request_bytes_(request_bytes) {}

  void Start(IpAddr server, uint16_t port) {
    stack_->SetHandler(this);
    stack_->Connect(server, port);
  }
  void OnConnected(ConnId conn, bool success) override {
    ASSERT_TRUE(success);
    writer_.Start(conn, request_bytes_);
  }
  void OnSendSpace(ConnId, size_t) override { writer_.Pump(); }
  void OnData(ConnId conn, size_t) override { DrainInto(stack_, conn, &received_); }
  void OnRemoteClosed(ConnId) override { ++remote_closed_; }
  void OnClosed(ConnId) override { ++closed_; }

  Stack* stack_;
  PatternWriter writer_;
  size_t request_bytes_;
  std::vector<uint8_t> received_;
  int remote_closed_ = 0;
  int closed_ = 0;
};

// Server: reads only when Drain() is called (the whole request is in by the
// time the client's FIN is consumed), and answers only when Respond() is
// called, closing once the response is queued.
class HoldThenRespondServer : public AppHandler {
 public:
  explicit HoldThenRespondServer(Stack* stack) : stack_(stack), writer_(stack, ResponseByte) {}

  void Start(uint16_t port) {
    stack_->SetHandler(this);
    stack_->Listen(port);
  }
  void Drain() { DrainInto(stack_, conn_, &received_); }
  void Respond(size_t bytes) { writer_.Start(conn_, bytes); }

  void OnAccepted(ConnId conn, uint16_t) override { conn_ = conn; }
  void OnSendSpace(ConnId, size_t) override { writer_.Pump(); }
  void OnRemoteClosed(ConnId) override { ++remote_closed_; }
  void OnClosed(ConnId) override { ++closed_; }

  Stack* stack_;
  PatternWriter writer_;
  ConnId conn_ = kInvalidConn;
  std::vector<uint8_t> received_;
  int remote_closed_ = 0;
  int closed_ = 0;
};

// Steps the simulation in 20 us slices until `done` holds or `limit` passes.
template <typename Pred>
bool RunUntilTrue(Experiment* exp, Pred done, TimeNs limit) {
  while (!done()) {
    if (exp->sim().Now() >= limit) {
      return false;
    }
    exp->sim().RunUntil(exp->sim().Now() + Us(20));
  }
  return true;
}

bool MatchesPattern(const std::vector<uint8_t>& data, size_t len, uint8_t (*fill)(size_t)) {
  if (data.size() != len) {
    return false;
  }
  for (size_t i = 0; i < len; ++i) {
    if (data[i] != fill(i)) {
      return false;
    }
  }
  return true;
}

// One request/response exchange with the client closing first. Checks each
// ring's storage at the transition that ends its stream, then that every
// byte crossed each direction exactly once.
void RunStorageFollowsStream(Experiment* exp) {
  constexpr uint16_t kPort = 7100;
  constexpr size_t kRequest = 40'000;    // Fits the server's 64 KiB RX ring unread.
  constexpr size_t kResponse = 200'000;  // Three TX rings' worth.
  HoldThenRespondServer server(exp->host(0).stack());
  RequestThenReadClient client(exp->host(1).stack(), kRequest);
  server.Start(kPort);
  client.Start(exp->host(0).ip(), kPort);
  TasService* client_tas = exp->host(1).tas();
  TasService* server_tas = exp->host(0).tas();
  // The client's connection took the first ephemeral port.
  const FlowKey client_key{20000, exp->host(0).ip(), kPort};
  const FlowKey server_key{kPort, exp->host(1).ip(), 20000};

  // 1. The client's FIN is acked: its TX ring is gone while the flow waits
  // in FIN_WAIT_2. The server consumed that FIN but holds the request
  // unread, so its RX ring stays.
  ASSERT_TRUE(RunUntilTrue(exp, [&] {
    const Flow* f = client_tas->LookupFlow(client_key);
    return f != nullptr && f->cstate == ConnState::kFinWait2;
  }, Sec(1)));
  const Flow* closer = client_tas->LookupFlow(client_key);
  EXPECT_EQ(closer->cold().tx_mem.bytes(), 0u);
  const uint8_t* closer_tx_base = closer->fs.tx_base;
  EXPECT_EQ(closer_tx_base, nullptr);
  const Flow* reader = server_tas->LookupFlow(server_key);
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(reader->cstate, ConnState::kCloseWait);
  EXPECT_TRUE(reader->cold().fin_received);
  EXPECT_EQ(reader->RxUsed(), kRequest);
  EXPECT_GT(reader->cold().rx_mem.bytes(), 0u);
  const uint8_t* reader_rx_base = reader->fs.rx_base;
  EXPECT_NE(reader_rx_base, nullptr);

  // 2. The half-closed reader drains: the read that empties the ring frees it.
  server.Drain();
  EXPECT_TRUE(MatchesPattern(server.received_, kRequest, RequestByte));
  EXPECT_EQ(reader->cold().rx_mem.bytes(), 0u);
  reader_rx_base = reader->fs.rx_base;
  EXPECT_EQ(reader_rx_base, nullptr);

  // 3. The CLOSE_WAIT side streams its response from the TX ring with no RX
  // storage behind it.
  server.Respond(kResponse);
  ASSERT_TRUE(RunUntilTrue(exp, [&] { return client.received_.size() >= 64 * 1024; },
                           Sec(2)));
  ASSERT_LT(server.writer_.sent(), kResponse);
  EXPECT_EQ(reader->cstate, ConnState::kCloseWait);
  EXPECT_EQ(reader->cold().rx_mem.bytes(), 0u);
  EXPECT_GT(reader->cold().tx_mem.bytes(), 0u);
  // The half-closed client receives into RX storage it still needs.
  EXPECT_GT(closer->cold().rx_mem.bytes(), 0u);

  // 4. The server's FIN ends the exchange: its flow is freed from LAST_ACK,
  // and the client's TIME_WAIT flow holds no payload storage at all.
  ASSERT_TRUE(RunUntilTrue(exp, [&] {
    return server.closed_ == 1 && client.remote_closed_ == 1 &&
           client.received_.size() == kResponse;
  }, Sec(3)));
  EXPECT_EQ(server_tas->LookupFlow(server_key), nullptr);
  closer = client_tas->LookupFlow(client_key);
  ASSERT_NE(closer, nullptr);
  EXPECT_EQ(closer->cstate, ConnState::kTimeWait);
  EXPECT_EQ(closer->cold().rx_mem.bytes(), 0u);
  EXPECT_EQ(closer->cold().tx_mem.bytes(), 0u);

  exp->sim().RunUntil(exp->sim().Now() + Ms(5));  // Past TIME_WAIT.
  EXPECT_EQ(client_tas->LookupFlow(client_key), nullptr);
  EXPECT_EQ(client.closed_, 1);
  EXPECT_EQ(server.remote_closed_, 1);
  // Every byte crossed each direction exactly once.
  EXPECT_TRUE(MatchesPattern(server.received_, kRequest, RequestByte));
  EXPECT_TRUE(MatchesPattern(client.received_, kResponse, ResponseByte));
}

TEST(StreamStorageTest, RingsFreedWhenTheirStreamEnds) {
  auto exp = Experiment::PointToPoint(TasSpec(), TasSpec(), TestLink());
  RunStorageFollowsStream(exp.get());
}

// The same exchange with duplicated and reordered segments in both
// directions through teardown (registered as its own ctest, label chaos).
TEST(StreamStorageChaosTest, DuplicationAndReorderingThroughTeardown) {
  LinkConfig link = TestLink();
  link.faults.Add(Duplication(0.05));
  link.faults.Add(Reordering(0.05, Us(20), Us(80)));
  auto exp = Experiment::PointToPoint(TasSpec(), TasSpec(), link);
  RunStorageFollowsStream(exp.get());
  uint64_t duplicated = 0;
  uint64_t reordered = 0;
  for (int dir = 0; dir < 2; ++dir) {
    duplicated += exp->host_link(0)->stats(dir).duplicated;
    reordered += exp->host_link(0)->stats(dir).reordered;
  }
  EXPECT_GT(duplicated, 0u);
  EXPECT_GT(reordered, 0u);
}

}  // namespace
}  // namespace tas
