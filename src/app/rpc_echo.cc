#include "src/app/rpc_echo.h"

#include <algorithm>

#include "src/util/logging.h"

namespace tas {

EchoServer::EchoServer(Simulator* sim, Stack* stack, const EchoServerConfig& config)
    : sim_(sim), stack_(stack), config_(config),
      scratch_(std::max(config.request_bytes, config.response_bytes)) {}

void EchoServer::Start() {
  stack_->SetHandler(this);
  stack_->Listen(config_.port);
}

void EchoServer::OnAccepted(ConnId conn, uint16_t port) {
  (void)port;
  pending_bytes_[conn] = 0;
  if (config_.mode == EchoServerConfig::Mode::kTxOnly) {
    PumpTx(conn);
  }
}

void EchoServer::OnData(ConnId conn, size_t bytes) {
  auto it = pending_bytes_.find(conn);
  if (it == pending_bytes_.end()) {
    return;
  }
  it->second += bytes;
  while (it->second >= config_.request_bytes) {
    it->second -= config_.request_bytes;
    const size_t got = stack_->Recv(conn, scratch_.data(), config_.request_bytes);
    TAS_CHECK(got == config_.request_bytes);
    ++requests_served_;
    if (config_.app_cycles > 0) {
      stack_->ChargeApp(conn, config_.app_cycles);
    }
    if (config_.mode == EchoServerConfig::Mode::kEcho) {
      stack_->Send(conn, scratch_.data(), config_.response_bytes);
    }
  }
}

void EchoServer::OnSendSpace(ConnId conn, size_t bytes) {
  (void)bytes;
  if (config_.mode == EchoServerConfig::Mode::kTxOnly) {
    PumpTx(conn);
  }
}

void EchoServer::PumpTx(ConnId conn) {
  // Stream responses continuously, one app-compute charge per message.
  while (stack_->SendSpace(conn) >= config_.response_bytes) {
    if (config_.app_cycles > 0) {
      stack_->ChargeApp(conn, config_.app_cycles);
    }
    const size_t sent = stack_->Send(conn, scratch_.data(), config_.response_bytes);
    if (sent < config_.response_bytes) {
      break;
    }
    ++requests_served_;
  }
}

void EchoServer::OnRemoteClosed(ConnId conn) {
  stack_->Close(conn);
}

void EchoServer::OnClosed(ConnId conn) { pending_bytes_.erase(conn); }

EchoClient::EchoClient(Simulator* sim, Stack* stack, const EchoClientConfig& config)
    : sim_(sim), stack_(stack), config_(config), request_(config.request_bytes, 0xAB) {}

void EchoClient::Start() {
  stack_->SetHandler(this);
  for (size_t i = 0; i < config_.num_connections; ++i) {
    const TimeNs jitter =
        config_.connect_spread > 0
            ? static_cast<TimeNs>(i) * config_.connect_spread /
                  static_cast<TimeNs>(config_.num_connections)
            : 0;
    sim_->After(jitter, [this] { OpenConnection(); });
  }
}

void EchoClient::OpenConnection() {
  const ConnId conn = stack_->Connect(config_.server_ip, config_.server_port);
  conns_[conn] = ConnState{};
}

void EchoClient::BeginMeasurement() {
  measuring_ = true;
  measure_start_ = sim_->Now();
  completed_at_measure_start_ = completed_;
  latency_.Clear();
}

double EchoClient::Throughput() const {
  const TimeNs elapsed = sim_->Now() - measure_start_;
  if (elapsed <= 0) {
    return 0;
  }
  return static_cast<double>(completed_ - completed_at_measure_start_) / ToSec(elapsed);
}

void EchoClient::OnConnected(ConnId conn, bool success) {
  if (!success) {
    conns_.erase(conn);
    // Retry (transient handshake failure under load).
    sim_->After(Ms(1), [this] { OpenConnection(); });
    return;
  }
  auto it = conns_.find(conn);
  if (it == conns_.end()) {
    return;
  }
  if (sim_->Now() < config_.first_request_at) {
    sim_->At(config_.first_request_at, [this, conn] { OnConnected(conn, true); });
    return;
  }
  if (config_.mode == EchoServerConfig::Mode::kTxOnly) {
    return;  // Server streams; we only consume.
  }
  if (config_.mode == EchoServerConfig::Mode::kRxOnly) {
    // Server never replies: keep the pipe full from send-space feedback.
    while (stack_->SendSpace(conn) >= config_.request_bytes) {
      if (stack_->Send(conn, request_.data(), request_.size()) < request_.size()) {
        break;
      }
      ++completed_;
    }
    return;
  }
  for (size_t i = 0; i < config_.pipeline_depth; ++i) {
    SendRequest(conn);
  }
}

void EchoClient::SendRequest(ConnId conn) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) {
    return;
  }
  it->second.send_times.push_back(sim_->Now());
  stack_->Send(conn, request_.data(), request_.size());
}

void EchoClient::OnData(ConnId conn, size_t bytes) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) {
    return;
  }
  ConnState& state = it->second;
  state.received += bytes;
  const size_t message = config_.response_bytes;
  while (state.received >= message) {
    state.received -= message;
    std::vector<uint8_t> buf(message);
    stack_->Recv(conn, buf.data(), message);
    ++completed_;
    ++state.messages_done;
    if (!state.send_times.empty()) {
      const TimeNs sent_at = state.send_times.front();
      state.send_times.pop_front();
      if (measuring_) {
        latency_.Add(ToUs(sim_->Now() - sent_at));
      }
    }
    if (config_.mode == EchoServerConfig::Mode::kTxOnly) {
      continue;  // Pure consumption.
    }
    if (config_.messages_per_connection > 0 &&
        state.messages_done >= config_.messages_per_connection) {
      Reconnect(conn);
      return;
    }
    SendRequest(conn);
  }
}

void EchoClient::OnSendSpace(ConnId conn, size_t bytes) {
  (void)bytes;
  if (config_.mode != EchoServerConfig::Mode::kRxOnly) {
    return;
  }
  while (stack_->SendSpace(conn) >= config_.request_bytes) {
    if (stack_->Send(conn, request_.data(), request_.size()) < request_.size()) {
      break;
    }
    ++completed_;
  }
}

void EchoClient::Reconnect(ConnId conn) {
  conns_.erase(conn);
  stack_->Close(conn);
  ++reconnects_;
  OpenConnection();
}

void EchoClient::OnRemoteClosed(ConnId conn) {
  conns_.erase(conn);
  stack_->Close(conn);
}

void EchoClient::OnClosed(ConnId conn) { conns_.erase(conn); }

}  // namespace tas
