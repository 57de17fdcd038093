// Congestion-control interfaces.
//
// TAS separates congestion-control *policy* (slow path, per control
// interval) from *enforcement* (fast path rate buckets). The slow path
// drives a RateCc per flow from fast-path feedback counters (paper §3.2,
// Table 3: cnt_ackb, cnt_ecnb, cnt_frexmits, rtt_est); a window policy runs
// behind WindowRateCc. The baseline stacks (Linux/IX/mTCP) run a WindowCc
// per ACK inside the TCP engine.
#ifndef SRC_CC_CC_H_
#define SRC_CC_CC_H_

#include <cstdint>
#include <memory>

#include "src/util/time.h"

namespace tas {

// Feedback for one control-loop iteration of a flow.
struct CcFeedback {
  uint64_t acked_bytes = 0;    // Bytes newly acknowledged this interval.
  uint64_t ecn_bytes = 0;      // Of those, bytes that were ECN marked.
  uint32_t retransmits = 0;    // Fast retransmits + timeouts this interval.
  bool timed_out = false;      // One of the retransmits was a timeout.
  TimeNs rtt = 0;              // Current RTT estimate.
  double actual_tx_bps = 0;    // Measured send rate over the interval.
  // True if the application had no queued payload at sampling time: the
  // flow's rate is bounded by the app, not by congestion control.
  bool app_limited = false;
};

// Rate-based congestion control, evaluated by the TAS slow path.
class RateCc {
 public:
  virtual ~RateCc() = default;

  // Runs one control-loop iteration; returns the new rate in bits/sec.
  virtual double Update(const CcFeedback& feedback) = 0;

  virtual double rate_bps() const = 0;
};

// Window-based congestion control, evaluated per ACK by the TCP engine.
class WindowCc {
 public:
  virtual ~WindowCc() = default;

  // `acked` bytes were cumulatively acknowledged; `ecn_echo` is the ECE bit.
  virtual void OnAck(uint64_t acked_bytes, bool ecn_echo, TimeNs rtt) = 0;
  // Triple-dupack loss signal.
  virtual void OnFastRetransmit() = 0;
  // RTO expiry.
  virtual void OnTimeout() = 0;

  virtual uint64_t cwnd() const = 0;
};

enum class CcAlgorithm {
  kDctcpRate,   // TAS default (paper §3.2).
  kTimely,      // TAS alternative.
  kDctcpWindow, // Baselines with DCTCP.
  kNewReno,     // Plain TCP baseline (Fig 11 "TCP").
};

}  // namespace tas

#endif  // SRC_CC_CC_H_
