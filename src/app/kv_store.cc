#include "src/app/kv_store.h"

#include <algorithm>
#include <cstring>

#include "src/util/logging.h"

namespace tas {
namespace {

// Client workload, as in the paper: zipf-distributed keys with s = 0.9 and
// 90% GET / 10% SET; plus the client-side request build/parse cost.
constexpr double kZipfSkew = 0.9;
constexpr double kGetFraction = 0.9;
constexpr uint64_t kClientAppCycles = 300;

void Put32At(std::vector<uint8_t>& buf, size_t at, uint32_t v) {
  std::memcpy(buf.data() + at, &v, 4);
}

uint32_t Get32At(const uint8_t* buf) {
  uint32_t v;
  std::memcpy(&v, buf, 4);
  return v;
}

void Put16At(std::vector<uint8_t>& buf, size_t at, uint16_t v) {
  std::memcpy(buf.data() + at, &v, 2);
}

uint16_t Get16At(const uint8_t* buf) {
  uint16_t v;
  std::memcpy(&v, buf, 2);
  return v;
}

constexpr uint8_t kOpGet = 1;
constexpr uint8_t kOpSet = 2;

}  // namespace

KvServer::KvServer(Simulator* sim, Stack* stack, const KvServerConfig& config)
    : sim_(sim), stack_(stack), config_(config) {
  const size_t n = config_.contended ? 1 : config_.num_keys;
  values_.assign(n, std::string(config_.value_bytes, 'v'));
  if (config_.contended) {
    TAS_CHECK(config_.lock_core != nullptr);
  }
}

void KvServer::Start() {
  stack_->SetHandler(this);
  stack_->Listen(config_.port);
}

void KvServer::OnAccepted(ConnId conn, uint16_t port) {
  (void)port;
  conns_[conn];
}

void KvServer::OnData(ConnId conn, size_t bytes) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) {
    return;
  }
  ConnBuf& state = it->second;
  const size_t old = state.buf.size();
  state.buf.resize(old + bytes);
  const size_t got = stack_->Recv(conn, state.buf.data() + old, bytes);
  state.buf.resize(old + got);
  ProcessRequests(conn, state);
}

void KvServer::ProcessRequests(ConnId conn, ConnBuf& state) {
  size_t offset = 0;
  while (state.buf.size() - offset >= kKvRequestHeader + config_.key_bytes) {
    const uint8_t* req = state.buf.data() + offset;
    const uint8_t op = req[0];
    const uint32_t key_id = Get32At(req + 4);
    const uint16_t value_len = Get16At(req + 8);
    const size_t req_bytes =
        kKvRequestHeader + config_.key_bytes + (op == kOpSet ? value_len : 0);
    if (state.buf.size() - offset < req_bytes) {
      break;  // Wait for the rest of this request.
    }

    stack_->ChargeApp(conn, config_.app_cycles_per_op);
    const size_t index = config_.contended ? 0 : key_id % values_.size();
    if (config_.contended) {
      // Updates (and contended reads) serialize on a single lock. The lock
      // is modeled as work on one shared core; the requesting thread spins
      // for the wait + hold time, so lock throughput caps the server.
      const TimeNs now = sim_->Now();
      const TimeNs unlocked = config_.lock_core->Charge(CpuModule::kApp,
                                                        config_.lock_hold_cycles);
      if (unlocked > now) {
        stack_->ChargeApp(conn, NsToCycles(unlocked - now, kCoreGhz));
      }
    }

    std::vector<uint8_t> resp;
    if (op == kOpGet) {
      ++gets_;
      const std::string& value = values_[index];
      resp.resize(kKvResponseHeader + value.size());
      resp[0] = 0;  // Status OK.
      Put16At(resp, 2, static_cast<uint16_t>(value.size()));
      std::memcpy(resp.data() + kKvResponseHeader, value.data(), value.size());
    } else {
      ++sets_;
      values_[index].assign(reinterpret_cast<const char*>(req + req_bytes - value_len),
                            value_len);
      resp.resize(kKvResponseHeader);
      resp[0] = 0;
      Put16At(resp, 2, 0);
    }
    stack_->Send(conn, resp.data(), resp.size());
    offset += req_bytes;
  }
  if (offset > 0) {
    state.buf.erase(state.buf.begin(), state.buf.begin() + static_cast<long>(offset));
  }
}

void KvServer::OnRemoteClosed(ConnId conn) { stack_->Close(conn); }

void KvServer::OnClosed(ConnId conn) { conns_.erase(conn); }

KvClient::KvClient(Simulator* sim, Stack* stack, const KvClientConfig& config)
    : sim_(sim),
      stack_(stack),
      config_(config),
      rng_(config.rng_seed),
      zipf_(config.num_keys, kZipfSkew) {}

KvClient::~KvClient() { tick_.Cancel(); }

void KvClient::Start() {
  stack_->SetHandler(this);
  for (size_t i = 0; i < config_.num_connections; ++i) {
    const TimeNs jitter = config_.connect_spread > 0
                              ? static_cast<TimeNs>(i) * config_.connect_spread /
                                    static_cast<TimeNs>(config_.num_connections)
                              : 0;
    sim_->After(jitter, [this] {
      const ConnId conn = stack_->Connect(config_.server_ip, config_.server_port);
      conns_[conn] = ConnState{};
    });
  }
  if (config_.target_ops_per_sec > 0) {
    OpenLoopTick();
  }
}

void KvClient::BeginMeasurement() {
  measuring_ = true;
  measure_start_ = sim_->Now();
  completed_at_start_ = completed_;
  latency_.Clear();
}

double KvClient::Throughput() const {
  const TimeNs elapsed = sim_->Now() - measure_start_;
  if (elapsed <= 0) {
    return 0;
  }
  return static_cast<double>(completed_ - completed_at_start_) / ToSec(elapsed);
}

size_t KvClient::RequestBytes(bool is_set) const {
  return kKvRequestHeader + config_.key_bytes + (is_set ? config_.value_bytes : 0);
}

void KvClient::OnConnected(ConnId conn, bool success) {
  if (!success) {
    conns_.erase(conn);
    return;
  }
  if (config_.target_ops_per_sec > 0) {
    ready_conns_.push_back(conn);
    return;
  }
  if (sim_->Now() < config_.first_request_at) {
    sim_->At(config_.first_request_at, [this, conn] {
      if (conns_.count(conn) != 0) {
        SendRequest(conn);
      }
    });
    return;
  }
  SendRequest(conn);  // Closed loop: one request in flight per connection.
}

void KvClient::SendRequest(ConnId conn) {
  auto it = conns_.find(conn);
  if (it == conns_.end() || it->second.in_flight) {
    return;
  }
  const bool is_set = !rng_.NextBool(kGetFraction);
  const uint32_t key_id = static_cast<uint32_t>(zipf_.Sample(rng_));

  std::vector<uint8_t> req(RequestBytes(is_set), 0);
  req[0] = is_set ? 2 : 1;
  Put32At(req, 4, key_id);
  Put16At(req, 8, is_set ? static_cast<uint16_t>(config_.value_bytes) : 0);

  stack_->ChargeApp(conn, kClientAppCycles);
  ConnState& state = it->second;
  state.in_flight = true;
  state.sent_at = sim_->Now();
  state.expected =
      kKvResponseHeader + (is_set ? 0 : config_.value_bytes);
  state.received = 0;
  stack_->Send(conn, req.data(), req.size());
}

void KvClient::OpenLoopTick() {
  // Poisson arrivals at the target rate; each arrival uses an idle conn.
  const double mean_gap_ns = 1e9 / config_.target_ops_per_sec;
  tick_ = sim_->After(static_cast<TimeNs>(rng_.NextExp(mean_gap_ns)), [this] {
    if (!ready_conns_.empty()) {
      const size_t pick = rng_.NextUint64(ready_conns_.size());
      const ConnId conn = ready_conns_[pick];
      ready_conns_[pick] = ready_conns_.back();
      ready_conns_.pop_back();
      SendRequest(conn);
    }
    OpenLoopTick();
  });
}

void KvClient::OnData(ConnId conn, size_t bytes) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) {
    return;
  }
  ConnState& state = it->second;
  state.received += bytes;
  if (!state.in_flight || state.received < state.expected) {
    return;
  }
  std::vector<uint8_t> buf(state.expected);
  stack_->Recv(conn, buf.data(), state.expected);
  state.received -= state.expected;
  state.in_flight = false;
  ++completed_;
  if (measuring_) {
    latency_.Add(ToUs(sim_->Now() - state.sent_at));
  }
  stack_->ChargeApp(conn, kClientAppCycles);
  if (config_.target_ops_per_sec > 0) {
    ready_conns_.push_back(conn);
  } else {
    SendRequest(conn);
  }
}

void KvClient::OnRemoteClosed(ConnId conn) {
  conns_.erase(conn);
  stack_->Close(conn);
}

void KvClient::OnClosed(ConnId conn) { conns_.erase(conn); }

}  // namespace tas
