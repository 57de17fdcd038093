#include "src/cc/newreno.h"

#include <algorithm>

namespace tas {

NewRenoCc::NewRenoCc(const WindowCcConfig& config)
    : config_(config), cwnd_(config.mss * kInitialCwndSegments), ssthresh_(kMaxCwndBytes) {}

void NewRenoCc::OnAck(uint64_t acked_bytes, bool ecn_echo, TimeNs rtt) {
  (void)rtt;
  (void)ecn_echo;  // NewReno ignores ECN (the Fig 11 "TCP" baseline).
  if (cwnd_ < ssthresh_) {
    cwnd_ += acked_bytes;
  } else {
    cwnd_ += std::max<uint64_t>(1, config_.mss * acked_bytes / std::max<uint64_t>(cwnd_, 1));
  }
  cwnd_ = std::min(cwnd_, kMaxCwndBytes);
}

void NewRenoCc::OnFastRetransmit() {
  ssthresh_ = std::max(cwnd_ / 2, config_.mss * kMinCwndSegments);
  cwnd_ = ssthresh_;
}

void NewRenoCc::OnTimeout() {
  ssthresh_ = std::max(cwnd_ / 2, config_.mss * kMinCwndSegments);
  cwnd_ = config_.mss;
}

}  // namespace tas
