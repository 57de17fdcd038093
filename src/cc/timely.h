// TIMELY rate control (Mittal et al., SIGCOMM 2015), adapted for TCP by
// adding slow start as the paper describes (§1: "TIMELY (adapted for TCP by
// adding slow-start)").
//
// TIMELY is RTT-gradient based: below Tlow it increases additively, above
// Thigh it decreases multiplicatively, and in between it reacts to the
// normalized RTT gradient — negative gradient earns (possibly hyperactive)
// additive increase, positive gradient a proportional decrease.
#ifndef SRC_CC_TIMELY_H_
#define SRC_CC_TIMELY_H_

#include "src/cc/cc.h"

namespace tas {

struct TimelyConfig {
  double initial_bps = 10e6;
  double additive_step_bps = 10e6;
};

class TimelyCc : public RateCc {
 public:
  explicit TimelyCc(const TimelyConfig& config = {});

  double Update(const CcFeedback& feedback) override;
  double rate_bps() const override { return rate_bps_; }

  bool in_slow_start() const { return slow_start_; }

 private:
  TimelyConfig config_;
  double rate_bps_;
  TimeNs prev_rtt_ = 0;
  double rtt_diff_ = 0;
  int negative_gradient_count_ = 0;
  bool slow_start_ = true;
};

}  // namespace tas

#endif  // SRC_CC_TIMELY_H_
