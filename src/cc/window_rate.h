// A window policy run as a rate, the way TAS's slow path runs one (cc.c's
// window_to_rate): each control interval feeds the interval's feedback to
// the WindowCc and publishes one window per RTT, cwnd x 8 / rtt, which the
// fast path enforces with its rate bucket like any other rate. Until the
// flow's first RTT sample the rate stays at the initial rate.
#ifndef SRC_CC_WINDOW_RATE_H_
#define SRC_CC_WINDOW_RATE_H_

#include <memory>

#include "src/cc/cc.h"

namespace tas {

class WindowRateCc : public RateCc {
 public:
  WindowRateCc(std::unique_ptr<WindowCc> window, double initial_bps)
      : window_(std::move(window)), rate_bps_(initial_bps) {}

  double Update(const CcFeedback& feedback) override {
    if (feedback.acked_bytes > 0) {
      window_->OnAck(feedback.acked_bytes, feedback.ecn_bytes > 0, feedback.rtt);
    }
    if (feedback.timed_out) {
      window_->OnTimeout();
    } else if (feedback.retransmits > 0) {
      window_->OnFastRetransmit();
    }
    if (feedback.rtt > 0) {
      rate_bps_ = RateOf(window_->cwnd(), feedback.rtt);
    }
    return rate_bps_;
  }
  double rate_bps() const override { return rate_bps_; }

  const WindowCc& window() const { return *window_; }

  // The rate that sends `window_bytes` once per `rtt`.
  static double RateOf(uint64_t window_bytes, TimeNs rtt) {
    return static_cast<double>(window_bytes) * 8e9 / static_cast<double>(rtt);
  }

 private:
  std::unique_ptr<WindowCc> window_;
  double rate_bps_;
};

}  // namespace tas

#endif  // SRC_CC_WINDOW_RATE_H_
