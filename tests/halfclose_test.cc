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
//
// Closing-flow data on the fast path, teardown control on the slow path:
// payload into a FIN_WAIT_1/2 flow takes the fast path's normal RX path (its
// ACKs carry seq = FIN + 1, and one that acks our FIN applies FIN_WAIT_1 ->
// FIN_WAIT_2 there), while payload-less segments of closing flows and every
// SYN/FIN/RST stay slow-path exceptions. Crafted segments pin both sides.
//
// The slow path is one non-preemptive executor: every job (a forwarded
// segment, a SYN's connection set-up, an app's connect or close) is a queued
// work item whose effects land when its charge ends. Segments of connections
// it already tracks are served before queued set-up work, each class in
// arrival order: a handshake-completing ACK (with the request it carries)
// waits for at most the one item in service, the SYN-ACKs still leave in SYN
// order, and a connect's SYN or a close's FIN leaves only once its charge is
// served.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/app/rpc_echo.h"
#include "src/fault/impairment.h"
#include "src/harness/experiment.h"
#include "src/tas/service.h"
#include "src/tas/slow_path.h"

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

// --- Closing-flow data on the fast path ----------------------------------------

// Egress tap on the TAS host's side of the link: records the TCP header of
// every segment the host sends and drops the segment, so the peer never
// answers and every segment the TAS flow sees afterwards is crafted.
class SegmentTap : public Impairment {
 public:
  // With `sim`, sent_at[i] is when sent[i] reached the link.
  explicit SegmentTap(const Simulator* sim = nullptr)
      : Impairment(ImpairmentKind::kLinkDown), sim_(sim) {}
  void Apply(Packet& pkt, Rng& /*rng*/, ImpairmentDecision& decision) override {
    sent.push_back(pkt.tcp);
    if (sim_ != nullptr) {
      sent_at.push_back(sim_->Now());
    }
    decision.drop = true;
    decision.dropped_by = this;
  }
  std::vector<TcpHeader> sent;
  std::vector<TimeNs> sent_at;

 private:
  const Simulator* sim_;
};

// TAS client: sends a 12-byte request when connected and reads whatever
// arrives, also after the test closes its direction.
class RequestClient : public AppHandler {
 public:
  explicit RequestClient(Stack* stack) : stack_(stack) {}
  void OnConnected(ConnId conn, bool success) override {
    ASSERT_TRUE(success);
    conn_ = conn;
    const uint8_t req[12] = {1};
    ASSERT_EQ(stack_->Send(conn, req, sizeof(req)), sizeof(req));
  }
  void OnData(ConnId conn, size_t) override { DrainInto(stack_, conn, &received_); }

  Stack* stack_;
  ConnId conn_ = kInvalidConn;
  std::vector<uint8_t> received_;
};

// A TAS client flow against a Linux peer that never closes its direction.
// The client's request is acked before each test starts; the tests then
// craft the peer's segments into the TAS NIC.
class ClosingFlowTest : public ::testing::Test {
 protected:
  static constexpr uint16_t kPort = 7200;

  void SetUp() override {
    HostSpec tas_spec = TasSpec();
    tas_spec.tas.trace.flow_events = true;
    tas_spec.tas_overridden = true;
    HostSpec peer_spec;
    peer_spec.stack = StackKind::kLinux;
    exp_ = Experiment::PointToPoint(tas_spec, peer_spec, TestLink());
    exp_->host(1).stack()->SetHandler(&peer_);
    exp_->host(1).stack()->Listen(kPort);
    client_ = std::make_unique<RequestClient>(exp_->host(0).stack());
    exp_->host(0).stack()->SetHandler(client_.get());
    exp_->host(0).stack()->Connect(exp_->host(1).ip(), kPort);
    tas_ = exp_->host(0).tas();
    // The client's connection took the first ephemeral port.
    key_ = FlowKey{20000, exp_->host(1).ip(), kPort};
    ASSERT_TRUE(RunUntilTrue(exp_.get(), [&] {
      const Flow* f = tas_->LookupFlow(key_);
      return f != nullptr && f->cstate == ConnState::kEstablished && f->TxQueued() == 0;
    }, Ms(5)));
    flow_ = tas_->LookupFlow(key_);
    base_ = flow_->fs.ack;  // The peer's next sequence number.
  }

  // Crafts a peer segment carrying stream bytes [from, to) of ResponseByte,
  // acking `ack`, and lets the TAS host process it.
  void Inject(uint32_t from, uint32_t to, uint32_t ack) {
    std::vector<uint8_t> payload;
    for (uint32_t i = from; i < to; ++i) {
      payload.push_back(ResponseByte(i));
    }
    tas_->nic()->Receive(MakeTcpPacket(exp_->packet_pool(), exp_->host(1).ip(), kPort,
                                       tas_->local_ip(), key_.local_port, base_ + from, ack,
                                       TcpFlags::kAck, std::move(payload)));
    exp_->sim().RunUntil(exp_->sim().Now() + Us(50));
  }

  SegmentTap* AttachTap() {
    return static_cast<SegmentTap*>(
        exp_->host_link(0)->AddImpairment(0, std::make_unique<SegmentTap>()));
  }

  // Closes the client's direction behind a tap, so the FIN never reaches the
  // peer and the flow stays in FIN_WAIT_1. Returns our FIN's sequence number.
  uint32_t CloseIntoFinWait1(SegmentTap* tap) {
    exp_->host(0).stack()->Close(client_->conn_);
    exp_->sim().RunUntil(exp_->sim().Now() + Us(50));
    EXPECT_EQ(flow_->cstate, ConnState::kFinWait1);
    EXPECT_EQ(tap->sent.size(), 1u);
    EXPECT_TRUE(!tap->sent.empty() && tap->sent.back().fin());
    return tap->sent.empty() ? 0 : tap->sent.back().seq;
  }

  // The last kConnState event recorded for the client's flow.
  uint64_t LastTracedState() {
    const FlowId id = tas_->LookupFlowId(key_);
    uint64_t state = ~0ull;
    for (const FlowEvent& e : tas_->flow_trace().Events()) {
      if (e.flow == id && e.type == FlowEventType::kConnState) {
        state = e.a;
      }
    }
    return state;
  }

  uint64_t Exceptions(ConnState state) const {
    return tas_->stats().exceptions_by_state[static_cast<size_t>(state)];
  }

  AppHandler peer_;
  std::unique_ptr<Experiment> exp_;
  std::unique_ptr<RequestClient> client_;
  TasService* tas_ = nullptr;
  FlowKey key_{};
  Flow* flow_ = nullptr;
  uint32_t base_ = 0;
};

// In-order, out-of-order and duplicate payload into a FIN_WAIT_2 flow: the
// fast path delivers every byte exactly once, sends each ACK with seq =
// FIN + 1, and the slow path sees none of it.
TEST_F(ClosingFlowTest, FinWait2DataTakesTheFastPath) {
  exp_->host(0).stack()->Close(client_->conn_);
  ASSERT_TRUE(RunUntilTrue(exp_.get(), [&] { return flow_->cstate == ConnState::kFinWait2; },
                           Ms(5)));
  SegmentTap* tap = AttachTap();
  const uint32_t fin_next = flow_->fs.seq + 1;  // Our FIN holds fs.seq.
  const uint64_t exceptions = tas_->stats().exceptions;
  const uint64_t fin_wait_2 = Exceptions(ConnState::kFinWait2);
  const uint64_t fast_rx = tas_->stats().fastpath_rx_packets;

  Inject(0, 100, fin_next);  // In order.
  EXPECT_EQ(uint32_t{flow_->fs.ack}, base_ + 100);
  EXPECT_EQ(client_->received_.size(), 100u);
  Inject(200, 300, fin_next);  // Out of order: opens the interval.
  EXPECT_EQ(uint32_t{flow_->fs.ooo_len}, 100u);
  EXPECT_EQ(client_->received_.size(), 100u);
  Inject(100, 200, fin_next);  // Fills the gap.
  EXPECT_EQ(uint32_t{flow_->fs.ack}, base_ + 300);
  Inject(0, 100, fin_next);  // Duplicate: re-acked, not re-delivered.

  EXPECT_TRUE(MatchesPattern(client_->received_, 300, ResponseByte));
  EXPECT_EQ(flow_->cstate, ConnState::kFinWait2);
  EXPECT_EQ(tas_->stats().exceptions, exceptions);
  EXPECT_EQ(Exceptions(ConnState::kFinWait2), fin_wait_2);
  EXPECT_EQ(tas_->stats().fastpath_rx_packets, fast_rx + 4);
  const uint32_t acks[] = {100, 100, 300, 300};
  ASSERT_EQ(tap->sent.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(tap->sent[i].seq, fin_next) << "ACK " << i;
    EXPECT_EQ(tap->sent[i].ack, base_ + acks[i]) << "ACK " << i;
    EXPECT_EQ(tap->sent[i].flags, TcpFlags::kAck) << "ACK " << i;
  }
}

// A payload segment that also acks our FIN moves FIN_WAIT_1 -> FIN_WAIT_2 on
// the fast path: the TX ring is released and the transition is traced.
TEST_F(ClosingFlowTest, DataAckingOurFinLeavesFinWait1OnTheFastPath) {
  EXPECT_GT(flow_->cold().tx_mem.bytes(), 0u);  // The request's ring.
  SegmentTap* tap = AttachTap();
  const uint32_t fin_seq = CloseIntoFinWait1(tap);
  const uint64_t exceptions = tas_->stats().exceptions;

  Inject(0, 100, fin_seq + 1);

  EXPECT_EQ(flow_->cstate, ConnState::kFinWait2);
  EXPECT_TRUE(flow_->cold().fin_acked);
  EXPECT_EQ(flow_->cold().tx_mem.bytes(), 0u);
  const uint8_t* tx_base = flow_->fs.tx_base;
  EXPECT_EQ(tx_base, nullptr);
  EXPECT_EQ(LastTracedState(), static_cast<uint64_t>(ConnState::kFinWait2));
  EXPECT_EQ(tas_->stats().exceptions, exceptions);
  EXPECT_TRUE(MatchesPattern(client_->received_, 100, ResponseByte));
  ASSERT_EQ(tap->sent.size(), 2u);  // The FIN, then the data's ACK.
  EXPECT_EQ(tap->sent[1].seq, fin_seq + 1);
  EXPECT_EQ(tap->sent[1].ack, base_ + 100);
}

// The boundary that keeps the paper figures unchanged: a payload-less ack of
// our FIN is still one slow-path exception, counted under FIN_WAIT_1.
TEST_F(ClosingFlowTest, PayloadlessFinAckStaysASlowPathException) {
  SegmentTap* tap = AttachTap();
  const uint32_t fin_seq = CloseIntoFinWait1(tap);
  const uint64_t exceptions = tas_->stats().exceptions;
  const uint64_t fin_wait_1 = Exceptions(ConnState::kFinWait1);
  const uint64_t fast_rx = tas_->stats().fastpath_rx_packets;

  Inject(0, 0, fin_seq + 1);

  EXPECT_EQ(tas_->stats().exceptions, exceptions + 1);
  EXPECT_EQ(Exceptions(ConnState::kFinWait1), fin_wait_1 + 1);
  EXPECT_EQ(tas_->stats().fastpath_rx_packets, fast_rx);
  EXPECT_EQ(flow_->cstate, ConnState::kFinWait2);
  EXPECT_EQ(flow_->cold().tx_mem.bytes(), 0u);
  EXPECT_EQ(LastTracedState(), static_cast<uint64_t>(ConnState::kFinWait2));
}

// --- Slow-path exception classes ----------------------------------------------

// Records when the TAS listener's app sees each notification.
class TimedServer : public AppHandler {
 public:
  explicit TimedServer(Simulator* sim) : sim_(sim) {}
  void OnAccepted(ConnId conn, uint16_t) override {
    accepted_.push_back(conn);
    accepted_at_.push_back(sim_->Now());
  }
  void OnData(ConnId, size_t bytes) override {
    data_at_ = sim_->Now();
    data_bytes_ += bytes;
  }
  void OnRemoteClosed(ConnId) override { remote_closed_at_ = sim_->Now(); }

  Simulator* sim_;
  std::vector<ConnId> accepted_;
  std::vector<TimeNs> accepted_at_;
  TimeNs data_at_ = 0;
  size_t data_bytes_ = 0;
  TimeNs remote_closed_at_ = 0;
};

// A TAS listener fed crafted client segments, its replies caught by an egress
// tap. Each SYN costs the slow path an exception charge plus half a
// connection set-up (45,600 cycles, ~21.7 us); a segment of a connection the
// slow path already tracks costs one exception charge (600 cycles); an app's
// close costs half a connection teardown (30,000 cycles, ~14.3 us). The
// tests queue set-up work (SYNs, closes) and then segments of one SYN_RCVD
// flow behind it.
class ExceptionClassTest : public ::testing::Test {
 protected:
  static constexpr uint16_t kPort = 7300;
  static constexpr uint16_t kFlowPort = 30000;  // The flow the tests complete.
  static constexpr uint32_t kPeerIsn = 1000;
  static constexpr int kSyns = 16;

  void SetUp() override {
    // One fast-path core: segments reach the slow path in NIC arrival order.
    HostSpec tas_spec = TasSpec();
    tas_spec.stack_cores = 1;
    HostSpec peer_spec;
    peer_spec.stack = StackKind::kLinux;
    exp_ = Experiment::PointToPoint(tas_spec, peer_spec, TestLink());
    server_ = std::make_unique<TimedServer>(&exp_->sim());
    exp_->host(0).stack()->SetHandler(server_.get());
    exp_->host(0).stack()->Listen(kPort);
    tas_ = exp_->host(0).tas();
    tap_ = static_cast<SegmentTap*>(exp_->host_link(0)->AddImpairment(
        0, std::make_unique<SegmentTap>(&exp_->sim())));
    exp_->sim().RunUntil(Us(50));  // The listen command reaches the slow path.
  }

  void Inject(uint16_t peer_port, uint8_t flags, uint32_t seq, uint32_t ack,
              size_t payload_len = 0) {
    tas_->nic()->Receive(MakeTcpPacket(exp_->packet_pool(), exp_->host(1).ip(), peer_port,
                                       tas_->local_ip(), kPort, seq, ack, flags,
                                       std::vector<uint8_t>(payload_len, 0x5a)));
  }

  std::vector<TcpHeader> SynAcks() const {
    std::vector<TcpHeader> out;
    for (const TcpHeader& h : tap_->sent) {
      if (h.syn() && h.ack_flag()) {
        out.push_back(h);
      }
    }
    return out;
  }

  void ClearTap() {
    tap_->sent.clear();
    tap_->sent_at.clear();
  }

  // Takes kFlowPort's connection to SYN_RCVD on an idle slow path and
  // returns our ISS.
  uint32_t OpenToSynRcvd() {
    Inject(kFlowPort, TcpFlags::kSyn, kPeerIsn, 0);
    EXPECT_TRUE(RunUntilTrue(exp_.get(), [&] { return SynAcks().size() == 1; },
                             exp_->sim().Now() + Ms(1)));
    const std::vector<TcpHeader> syn_acks = SynAcks();
    ClearTap();
    return syn_acks.empty() ? 0 : syn_acks[0].seq;
  }

  // Queues SYNs for kSyns new connections, from ports kFlowPort + 1...
  void QueueSyns() {
    for (int i = 1; i <= kSyns; ++i) {
      Inject(static_cast<uint16_t>(kFlowPort + i), TcpFlags::kSyn, kPeerIsn, 0);
    }
  }

  // Runs until every queued SYN has its SYN-ACK, then 100 us more so what
  // was queued behind the last SYN is served too.
  void RunUntilSynsServed() {
    ASSERT_TRUE(RunUntilTrue(exp_.get(), [&] { return SynAcks().size() == kSyns; },
                             exp_->sim().Now() + Ms(5)));
    exp_->sim().RunUntil(exp_->sim().Now() + Us(100));
  }

  TimeNs SlowPathCycles(uint64_t cycles) const {
    return tas_->slowpath_cpu()->CyclesToTime(cycles);
  }
  uint64_t Count(ExceptionClass c) const {
    return tas_->stats().exception_count[static_cast<size_t>(c)];
  }
  uint64_t WaitNs(ExceptionClass c) const {
    return tas_->stats().exception_wait_ns[static_cast<size_t>(c)];
  }

  std::unique_ptr<Experiment> exp_;
  std::unique_ptr<TimedServer> server_;
  TasService* tas_ = nullptr;
  SegmentTap* tap_ = nullptr;
};

// A handshake-completing ACK carrying a request, queued behind kSyns SYNs:
// the app sees the connection and its data after at most the one set-up the
// non-preemptive slow-path core is running when the ACK arrives plus the
// ACK's own exception charge, not kSyns set-ups later; the SYN-ACKs still
// leave in SYN arrival order.
TEST_F(ExceptionClassTest, HandshakeAckWithDataOvertakesQueuedSyns) {
  const uint32_t iss = OpenToSynRcvd();
  const uint64_t flow_count = Count(ExceptionClass::kFlow);
  const uint64_t flow_wait = WaitNs(ExceptionClass::kFlow);
  const uint64_t setup_count = Count(ExceptionClass::kSetup);
  const uint64_t setup_wait = WaitNs(ExceptionClass::kSetup);
  QueueSyns();
  const TimeNs arrival = exp_->sim().Now();
  Inject(kFlowPort, TcpFlags::kAck, kPeerIsn + 1, iss + 1, 100);
  ASSERT_NO_FATAL_FAILURE(RunUntilSynsServed());

  const TimeNs exception = SlowPathCycles(600);
  const TimeNs set_up = SlowPathCycles(600 + tas_->config().costs->connection_setup / 2);
  // Fast-path RX, the context queue and the app's poll, on either side.
  const TimeNs delivery = Us(10);
  const TimeNs bound = set_up + exception + delivery;
  ASSERT_EQ(server_->accepted_at_.size(), 1u);
  EXPECT_LE(server_->accepted_at_[0] - arrival, bound);
  EXPECT_EQ(server_->data_bytes_, 100u);
  EXPECT_LE(server_->data_at_ - arrival, bound);

  // SYN-ACKs in SYN arrival order; the request's ACK leaves among the first.
  const std::vector<TcpHeader> syn_acks = SynAcks();
  for (int i = 0; i < kSyns; ++i) {
    EXPECT_EQ(syn_acks[i].dst_port, kFlowPort + 1 + i) << "SYN-ACK " << i;
  }
  const auto data_ack = std::find_if(tap_->sent.begin(), tap_->sent.end(),
                                     [](const TcpHeader& h) { return h.dst_port == kFlowPort; });
  ASSERT_NE(data_ack, tap_->sent.end());
  EXPECT_EQ(data_ack->ack, kPeerIsn + 1 + 100);
  EXPECT_LE(data_ack - tap_->sent.begin(), 1);  // SYN-ACKs sent before it.

  // The per-class counters hold the same story: one flow-class segment
  // that waited no longer than the bound, kSyns SYNs that waited longer.
  EXPECT_EQ(Count(ExceptionClass::kFlow) - flow_count, 1u);
  EXPECT_EQ(Count(ExceptionClass::kSetup) - setup_count, static_cast<uint64_t>(kSyns));
  EXPECT_GT(WaitNs(ExceptionClass::kFlow) - flow_wait, 0u);
  EXPECT_LE(WaitNs(ExceptionClass::kFlow) - flow_wait, set_up + exception);
  EXPECT_GT((WaitNs(ExceptionClass::kSetup) - setup_wait) / kSyns, set_up + exception);
}

// Two segments of one flow queued behind the SYNs keep their order: the
// handshake ACK establishes the flow before its FIN is consumed, so the
// flow ends in CLOSE_WAIT. Reversed, the FIN's ack would establish the
// flow and its FIN would be lost.
TEST_F(ExceptionClassTest, SegmentsOfOneFlowKeepArrivalOrder) {
  const uint32_t iss = OpenToSynRcvd();
  QueueSyns();
  Inject(kFlowPort, TcpFlags::kAck, kPeerIsn + 1, iss + 1);
  Inject(kFlowPort, TcpFlags::kFin | TcpFlags::kAck, kPeerIsn + 1, iss + 1);
  ASSERT_NO_FATAL_FAILURE(RunUntilSynsServed());

  const Flow* flow = tas_->LookupFlow(FlowKey{kPort, exp_->host(1).ip(), kFlowPort});
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->cstate, ConnState::kCloseWait);
  ASSERT_EQ(server_->accepted_at_.size(), 1u);
  EXPECT_GT(server_->remote_closed_at_, 0);
  EXPECT_GE(server_->remote_closed_at_, server_->accepted_at_[0]);
  EXPECT_EQ(Count(ExceptionClass::kFlow), 2u);
}

// --- The slow-path executor ---------------------------------------------------

// The ExceptionClassTest listener, whose app also opens and closes
// connections of its own.
class SlowPathExecutorTest : public ExceptionClassTest {
 protected:
  // Takes the connection from `peer_port` to ESTABLISHED; returns the app's
  // ConnId for it.
  ConnId OpenToEstablished(uint16_t peer_port) {
    const size_t accepted = server_->accepted_.size();
    const size_t sent = tap_->sent.size();
    Inject(peer_port, TcpFlags::kSyn, kPeerIsn, 0);
    EXPECT_TRUE(RunUntilTrue(exp_.get(), [&] { return tap_->sent.size() > sent; },
                             exp_->sim().Now() + Ms(1)));
    const uint32_t iss = tap_->sent.back().seq;
    Inject(peer_port, TcpFlags::kAck, kPeerIsn + 1, iss + 1);
    EXPECT_TRUE(RunUntilTrue(exp_.get(), [&] { return server_->accepted_.size() > accepted; },
                             exp_->sim().Now() + Ms(1)));
    return server_->accepted_.empty() ? kInvalidConn : server_->accepted_.back();
  }

  // When the first segment with exactly `flags` reached the link.
  TimeNs FirstSentAt(uint8_t flags) const {
    for (size_t i = 0; i < tap_->sent.size(); ++i) {
      if (tap_->sent[i].flags == flags) {
        return tap_->sent_at[i];
      }
    }
    return -1;
  }

  Stack* stack() { return exp_->host(0).stack(); }
};

// A connect's SYN leaves when its connection set-up charge ends, not when
// the command reaches the slow path.
TEST_F(SlowPathExecutorTest, ConnectSynLeavesAfterItsCharge) {
  const TimeNs issued = exp_->sim().Now();
  stack()->Connect(exp_->host(1).ip(), 9000);
  ASSERT_TRUE(RunUntilTrue(exp_.get(), [&] { return FirstSentAt(TcpFlags::kSyn) >= 0; },
                           issued + Ms(1)));
  EXPECT_GE(FirstSentAt(TcpFlags::kSyn) - issued,
            SlowPathCycles(tas_->config().costs->connection_setup / 2));
}

// A close's FIN leaves when its teardown charge ends.
TEST_F(SlowPathExecutorTest, CloseFinLeavesAfterItsCharge) {
  const ConnId conn = OpenToEstablished(kFlowPort);
  const TimeNs issued = exp_->sim().Now();
  stack()->Close(conn);
  constexpr uint8_t kFinAck = TcpFlags::kFin | TcpFlags::kAck;
  ASSERT_TRUE(RunUntilTrue(exp_.get(), [&] { return FirstSentAt(kFinAck) >= 0; },
                           issued + Ms(1)));
  EXPECT_GE(FirstSentAt(kFinAck) - issued,
            SlowPathCycles(tas_->config().costs->connection_teardown / 2));
}

// A handshake ACK carrying a request, arriving behind eight queued closes:
// it is served after the close in service, before the other seven, and at
// most one FIN leaves before the request's ACK.
TEST_F(SlowPathExecutorTest, HandshakeAckOvertakesQueuedCloses) {
  constexpr int kCloses = 8;
  std::vector<ConnId> conns;
  for (int i = 1; i <= kCloses; ++i) {
    conns.push_back(OpenToEstablished(static_cast<uint16_t>(kFlowPort + i)));
  }
  ClearTap();
  const uint32_t iss = OpenToSynRcvd();
  for (ConnId conn : conns) {
    stack()->Close(conn);
  }
  // The commands cross the context queue to the slow path: one close is in
  // service, seven are queued.
  exp_->sim().RunUntil(exp_->sim().Now() + Us(5));
  EXPECT_EQ(tas_->slow_path()->exception_depth(), static_cast<size_t>(kCloses - 1));
  const TimeNs arrival = exp_->sim().Now();
  Inject(kFlowPort, TcpFlags::kAck, kPeerIsn + 1, iss + 1, 100);
  constexpr uint8_t kFinAck = TcpFlags::kFin | TcpFlags::kAck;
  ASSERT_TRUE(RunUntilTrue(exp_.get(), [&] {
    return server_->data_bytes_ > 0 &&
           std::count_if(tap_->sent.begin(), tap_->sent.end(),
                         [](const TcpHeader& h) { return h.flags == kFinAck; }) == kCloses;
  }, arrival + Ms(1)));

  const TimeNs teardown = SlowPathCycles(tas_->config().costs->connection_teardown / 2);
  const TimeNs bound = teardown + SlowPathCycles(600) + Us(10);
  ASSERT_EQ(server_->accepted_at_.size(), static_cast<size_t>(kCloses + 1));
  EXPECT_LE(server_->accepted_at_.back() - arrival, bound);
  EXPECT_EQ(server_->data_bytes_, 100u);
  EXPECT_LE(server_->data_at_ - arrival, bound);
  const auto data_ack = std::find_if(tap_->sent.begin(), tap_->sent.end(),
                                     [](const TcpHeader& h) { return h.dst_port == kFlowPort; });
  ASSERT_NE(data_ack, tap_->sent.end());
  EXPECT_EQ(data_ack->ack, kPeerIsn + 1 + 100);
  EXPECT_LE(data_ack - tap_->sent.begin(), 1);  // FINs sent before it.
}

// Reduced churn between two TAS hosts (one request per connection, then
// close and reconnect): neither slow-path core ever books work further
// ahead of the clock than one work item (a SYN's exception plus set-up, the
// largest) and one control-loop iteration (120 cycles per flow it visits,
// at most every flow the host holds).
TEST(SlowPathExecutorChurnTest, MaxAheadWithinOneItemAndOneControlIteration) {
  HostSpec spec = TasSpec();
  auto exp = Experiment::PointToPoint(spec, spec, TestLink());
  EchoServerConfig sc;
  EchoServer server(&exp->sim(), exp->host(0).stack(), sc);
  server.Start();
  EchoClientConfig cc;
  cc.server_ip = exp->host(0).ip();
  cc.num_connections = 32;
  cc.pipeline_depth = 1;
  cc.messages_per_connection = 1;
  EchoClient client(&exp->sim(), exp->host(1).stack(), cc);
  client.Start();

  uint64_t flows_hw = 0;
  for (TimeNs t = Us(50); t <= Ms(20); t += Us(50)) {
    exp->sim().RunUntil(t);
    for (int host = 0; host < 2; ++host) {
      flows_hw = std::max<uint64_t>(flows_hw, exp->host(host).tas()->num_flows());
    }
  }
  EXPECT_GT(client.reconnects(), 100u);
  for (int host = 0; host < 2; ++host) {
    TasService* tas = exp->host(host).tas();
    const Core* core = tas->slowpath_cpu();
    const TimeNs item = core->CyclesToTime(600 + tas->config().costs->connection_setup / 2);
    const TimeNs iteration = core->CyclesToTime(120 * flows_hw);
    EXPECT_GT(core->max_ahead_ns(), 0) << "host " << host;
    EXPECT_LE(core->max_ahead_ns(), item + iteration) << "host " << host;
  }
}

}  // namespace
}  // namespace tas
