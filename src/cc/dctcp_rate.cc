#include "src/cc/dctcp_rate.h"

#include <algorithm>

namespace tas {
namespace {

constexpr double kEwmaGain = 1.0 / 16.0;  // DCTCP g.
constexpr double kRateCapHeadroom = 1.2;  // "no more than 20% higher than send rate".

}  // namespace

DctcpRateCc::DctcpRateCc(const DctcpRateConfig& config)
    : config_(config), rate_bps_(config.initial_bps) {}

double DctcpRateCc::Update(const CcFeedback& feedback) {
  // Clamp to 20% above the measured send rate first (paper: "we ensure at
  // the beginning of the control loop that the rate is no more than 20%
  // higher than the flow's send rate"). Applied only to app-limited flows
  // (for a backlogged flow the measured rate IS the enforced rate, and
  // per-interval MSS quantization would pin it); not during slow start; and
  // never below the cap floor, so request/response flows burst promptly.
  if (feedback.actual_tx_bps > 0 && feedback.app_limited && !slow_start_) {
    const double cap = std::max(feedback.actual_tx_bps * kRateCapHeadroom, kRateCapFloorBps);
    rate_bps_ = std::min(rate_bps_, cap);
    rate_bps_ = std::max(rate_bps_, config_.min_bps);
  }

  const bool have_acks = feedback.acked_bytes > 0;
  const double fraction =
      have_acks ? static_cast<double>(feedback.ecn_bytes) /
                      static_cast<double>(feedback.acked_bytes)
                : 0.0;
  alpha_ = (1 - kEwmaGain) * alpha_ + kEwmaGain * fraction;

  const bool congested = fraction > 0 || feedback.retransmits > 0;
  if (slow_start_) {
    if (!congested) {
      if (have_acks) {
        rate_bps_ *= 2;
      }
    } else {
      slow_start_ = false;
      rate_bps_ *= (1 - alpha_ / 2);
    }
  } else if (feedback.retransmits > 0) {
    rate_bps_ /= 2;
  } else if (fraction > 0) {
    rate_bps_ *= (1 - alpha_ / 2);
  } else if (have_acks) {
    // Additive increase only on intervals with feedback: an idle or
    // ack-starved flow must not ratchet its rate upward.
    rate_bps_ += config_.additive_step_bps;
  }

  rate_bps_ = std::clamp(rate_bps_, config_.min_bps, config_.max_bps);
  return rate_bps_;
}

}  // namespace tas
