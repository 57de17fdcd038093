#include "src/cc/timely.h"

#include <algorithm>

namespace tas {
namespace {

constexpr double kMinBps = 1e6;
constexpr double kMaxBps = 100e9;
constexpr double kBeta = 0.8;       // Multiplicative decrease factor weight.
constexpr double kEwmaAlpha = 0.3;  // RTT-difference EWMA gain.
constexpr TimeNs kTLow = Us(50);
constexpr TimeNs kTHigh = Us(500);
constexpr TimeNs kMinRtt = Us(20);
constexpr int kHaiThreshold = 5;  // Completions before hyper-active increase.

}  // namespace

TimelyCc::TimelyCc(const TimelyConfig& config)
    : config_(config), rate_bps_(config.initial_bps) {}

double TimelyCc::Update(const CcFeedback& feedback) {
  if (feedback.actual_tx_bps > 0) {
    rate_bps_ = std::min(rate_bps_, feedback.actual_tx_bps * 1.2);
    rate_bps_ = std::max(rate_bps_, kMinBps);
  }
  const TimeNs rtt = feedback.rtt;
  if (rtt <= 0) {
    return rate_bps_;
  }

  if (slow_start_) {
    if (rtt < kTHigh && feedback.retransmits == 0) {
      if (feedback.acked_bytes > 0) {
        rate_bps_ *= 2;
      }
      rate_bps_ = std::clamp(rate_bps_, kMinBps, kMaxBps);
      prev_rtt_ = rtt;
      return rate_bps_;
    }
    slow_start_ = false;
  }

  const TimeNs new_rtt_diff = prev_rtt_ == 0 ? 0 : rtt - prev_rtt_;
  prev_rtt_ = rtt;
  rtt_diff_ = (1 - kEwmaAlpha) * rtt_diff_ + kEwmaAlpha * static_cast<double>(new_rtt_diff);
  const double gradient = rtt_diff_ / static_cast<double>(kMinRtt);

  if (feedback.retransmits > 0) {
    rate_bps_ /= 2;
  } else if (rtt < kTLow) {
    rate_bps_ += config_.additive_step_bps;
    negative_gradient_count_ = 0;
  } else if (rtt > kTHigh) {
    rate_bps_ *= 1 - kBeta * (1 - static_cast<double>(kTHigh) / static_cast<double>(rtt));
    negative_gradient_count_ = 0;
  } else if (gradient <= 0) {
    ++negative_gradient_count_;
    const int n = negative_gradient_count_ >= kHaiThreshold ? 5 : 1;
    rate_bps_ += n * config_.additive_step_bps;
  } else {
    negative_gradient_count_ = 0;
    rate_bps_ *= 1 - kBeta * std::min(gradient, 1.0);
  }

  rate_bps_ = std::clamp(rate_bps_, kMinBps, kMaxBps);
  return rate_bps_;
}

}  // namespace tas
