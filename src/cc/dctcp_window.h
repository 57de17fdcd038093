// Window-based DCTCP (Alizadeh et al., SIGCOMM 2010), used by the baseline
// stacks: cwnd decrease proportional to the EWMA fraction of ECN-marked
// bytes, at most once per window of data; slow start and additive increase
// otherwise, as in NewReno.
#ifndef SRC_CC_DCTCP_WINDOW_H_
#define SRC_CC_DCTCP_WINDOW_H_

#include "src/cc/cc.h"

namespace tas {

struct WindowCcConfig {
  uint64_t mss = 1448;
};

// Window bounds shared by DCTCP and NewReno, in segments of `mss` and bytes.
inline constexpr uint64_t kInitialCwndSegments = 10;
inline constexpr uint64_t kMinCwndSegments = 2;
inline constexpr uint64_t kMaxCwndBytes = 1ull << 30;

class DctcpWindowCc : public WindowCc {
 public:
  explicit DctcpWindowCc(const WindowCcConfig& config = {});

  void OnAck(uint64_t acked_bytes, bool ecn_echo, TimeNs rtt) override;
  void OnFastRetransmit() override;
  void OnTimeout() override;
  uint64_t cwnd() const override { return cwnd_; }

  double alpha() const { return alpha_; }

 private:
  void EndObservationWindow();

  WindowCcConfig config_;
  uint64_t cwnd_;
  uint64_t ssthresh_;
  // Per-observation-window (one RTT of data) ECN accounting.
  uint64_t window_acked_ = 0;
  uint64_t window_marked_ = 0;
  uint64_t window_target_ = 0;
  double alpha_ = 0;
};

}  // namespace tas

#endif  // SRC_CC_DCTCP_WINDOW_H_
