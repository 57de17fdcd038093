#include "src/cc/dctcp_window.h"

#include <algorithm>

namespace tas {
namespace {

constexpr double kDctcpGain = 1.0 / 16.0;  // DCTCP g.

}  // namespace

DctcpWindowCc::DctcpWindowCc(const WindowCcConfig& config)
    : config_(config), cwnd_(config.mss * kInitialCwndSegments), ssthresh_(kMaxCwndBytes) {
  window_target_ = cwnd_;
}

void DctcpWindowCc::EndObservationWindow() {
  const double fraction =
      window_acked_ == 0
          ? 0.0
          : static_cast<double>(window_marked_) / static_cast<double>(window_acked_);
  alpha_ = (1 - kDctcpGain) * alpha_ + kDctcpGain * fraction;
  if (window_marked_ > 0) {
    // One multiplicative decrease per window.
    cwnd_ = static_cast<uint64_t>(static_cast<double>(cwnd_) * (1 - alpha_ / 2));
    cwnd_ = std::max(cwnd_, config_.mss * kMinCwndSegments);
    ssthresh_ = cwnd_;
  }
  window_acked_ = 0;
  window_marked_ = 0;
  window_target_ = cwnd_;
}

void DctcpWindowCc::OnAck(uint64_t acked_bytes, bool ecn_echo, TimeNs rtt) {
  (void)rtt;
  window_acked_ += acked_bytes;
  if (ecn_echo) {
    window_marked_ += acked_bytes;
  }

  if (cwnd_ < ssthresh_) {
    cwnd_ += acked_bytes;  // Slow start.
  } else {
    // Additive increase: one MSS per cwnd of acked data.
    cwnd_ += std::max<uint64_t>(1, config_.mss * acked_bytes / std::max<uint64_t>(cwnd_, 1));
  }
  cwnd_ = std::min(cwnd_, kMaxCwndBytes);

  if (window_acked_ >= window_target_) {
    EndObservationWindow();
  }
}

void DctcpWindowCc::OnFastRetransmit() {
  ssthresh_ = std::max(cwnd_ / 2, config_.mss * kMinCwndSegments);
  cwnd_ = ssthresh_;
  window_acked_ = 0;
  window_marked_ = 0;
  window_target_ = cwnd_;
}

void DctcpWindowCc::OnTimeout() {
  ssthresh_ = std::max(cwnd_ / 2, config_.mss * kMinCwndSegments);
  cwnd_ = config_.mss * kMinCwndSegments;
  window_acked_ = 0;
  window_marked_ = 0;
  window_target_ = cwnd_;
}

}  // namespace tas
