#include "src/app/bulk.h"

namespace tas {
namespace {

// Connections open evenly over this span, not as one SYN burst.
constexpr TimeNs kConnectSpread = Ms(1);

}  // namespace

BulkSender::BulkSender(Simulator* sim, Stack* stack, const BulkSenderConfig& config)
    : sim_(sim), stack_(stack), config_(config), chunk_(config.chunk_bytes, 0x55) {}

void BulkSender::Start() {
  stack_->SetHandler(this);
  for (size_t i = 0; i < config_.num_flows; ++i) {
    const TimeNs jitter =
        static_cast<TimeNs>(i) * kConnectSpread / static_cast<TimeNs>(config_.num_flows);
    sim_->After(jitter,
                [this] { stack_->Connect(config_.server_ip, config_.server_port); });
  }
}

void BulkSender::OnConnected(ConnId conn, bool success) {
  if (!success) {
    // Transient handshake failure (e.g. SYN storm): retry.
    sim_->After(Ms(10),
                [this] { stack_->Connect(config_.server_ip, config_.server_port); });
    return;
  }
  ++connected_;
  Pump(conn);
}

void BulkSender::OnSendSpace(ConnId conn, size_t bytes) {
  (void)bytes;
  Pump(conn);
}

void BulkSender::Pump(ConnId conn) {
  // Byte-stream transfer: partial writes are fine, keep the buffer full.
  for (;;) {
    const size_t sent = stack_->Send(conn, chunk_.data(), chunk_.size());
    bytes_sent_ += sent;
    if (sent < chunk_.size()) {
      break;
    }
  }
}

BulkReceiver::BulkReceiver(Simulator* sim, Stack* stack, const BulkReceiverConfig& config)
    : sim_(sim), stack_(stack), config_(config), scratch_(64 * 1024) {}

void BulkReceiver::Start() {
  stack_->SetHandler(this);
  stack_->Listen(config_.port);
  if (config_.sample_interval > 0) {
    sim_->After(config_.sample_interval, [this] { SampleWindows(); });
  }
}

void BulkReceiver::BeginMeasurement() {
  measuring_ = true;
  measure_start_ = sim_->Now();
  bytes_at_start_ = bytes_received_;
  window_samples_.clear();
  for (auto& [conn, bytes] : window_bytes_) {
    bytes = 0;
  }
}

double BulkReceiver::ThroughputBps() const {
  const TimeNs elapsed = sim_->Now() - measure_start_;
  if (elapsed <= 0) {
    return 0;
  }
  return static_cast<double>(bytes_received_ - bytes_at_start_) * 8.0 / ToSec(elapsed);
}

void BulkReceiver::OnAccepted(ConnId conn, uint16_t port) {
  (void)port;
  window_bytes_[conn] = 0;
}

void BulkReceiver::OnData(ConnId conn, size_t bytes) {
  size_t remaining = bytes;
  while (remaining > 0) {
    const size_t n = stack_->Recv(conn, scratch_.data(),
                                  std::min(remaining, scratch_.size()));
    if (n == 0) {
      break;
    }
    remaining -= n;
    bytes_received_ += n;
    window_bytes_[conn] += n;
  }
}

void BulkReceiver::SampleWindows() {
  if (measuring_) {
    for (auto& [conn, bytes] : window_bytes_) {
      window_samples_.push_back(bytes);
      bytes = 0;
    }
  } else {
    for (auto& [conn, bytes] : window_bytes_) {
      bytes = 0;
    }
  }
  sim_->After(config_.sample_interval, [this] { SampleWindows(); });
}

void BulkReceiver::OnRemoteClosed(ConnId conn) { stack_->Close(conn); }

void BulkReceiver::OnClosed(ConnId conn) { window_bytes_.erase(conn); }

}  // namespace tas
