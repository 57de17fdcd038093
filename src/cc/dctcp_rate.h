// Rate-based DCTCP, the TAS slow-path default (paper §3.2).
//
// The DCTCP control law (rate decrease proportional to the fraction of ECN
// marked bytes) applied to flow rates instead of windows:
//  * slow start: double the rate every control interval that brought ACKs,
//    or found the flow held by its own bucket with nothing in flight, until
//    congestion;
//  * congestion: rate *= (1 - alpha/2), alpha = EWMA of the marked fraction;
//  * additive increase: add a configurable step (10 Mbps default);
//  * retransmissions halve the rate (loss is a stronger signal than ECN);
//  * to prevent unbounded growth while the flow is application-limited, the
//    rate is clamped to at most 20% above the measured send rate.
#ifndef SRC_CC_DCTCP_RATE_H_
#define SRC_CC_DCTCP_RATE_H_

#include "src/cc/cc.h"

namespace tas {

struct DctcpRateConfig {
  double initial_bps = 10e6;
  double min_bps = 1e6;
  double max_bps = 100e9;
  double additive_step_bps = 10e6;  // Paper: 10 mbps by default.
};

class DctcpRateCc : public RateCc {
 public:
  // The app-limited clamp never pushes the rate below this: request-response
  // flows with tiny average throughput must still burst a response promptly.
  static constexpr double kRateCapFloorBps = 100e6;

  explicit DctcpRateCc(const DctcpRateConfig& config = {});

  double Update(const CcFeedback& feedback) override;
  double rate_bps() const override { return rate_bps_; }

  double alpha() const { return alpha_; }
  bool in_slow_start() const { return slow_start_; }

 private:
  DctcpRateConfig config_;
  double rate_bps_;
  double alpha_ = 0;
  bool slow_start_ = true;
};

}  // namespace tas

#endif  // SRC_CC_DCTCP_RATE_H_
