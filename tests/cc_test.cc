// Tests for the congestion-control algorithms: the TAS rate-based DCTCP
// control law (paper §3.2), window DCTCP, NewReno, TIMELY, a window policy
// run as a rate, and the RTT estimator / RTO machinery.
#include <gtest/gtest.h>

#include "src/cc/dctcp_rate.h"
#include "src/cc/dctcp_window.h"
#include "src/cc/newreno.h"
#include "src/cc/timely.h"
#include "src/cc/window_rate.h"
#include "src/tcp/rtt.h"

namespace tas {
namespace {

CcFeedback CleanAck(uint64_t bytes, double tx_bps = 0, bool app_limited = false) {
  CcFeedback f;
  f.acked_bytes = bytes;
  f.rtt = Us(50);
  f.actual_tx_bps = tx_bps;
  f.app_limited = app_limited;
  return f;
}

TEST(DctcpRateTest, SlowStartDoublesUntilCongestion) {
  DctcpRateConfig config;
  config.initial_bps = 10e6;
  DctcpRateCc cc(config);
  EXPECT_TRUE(cc.in_slow_start());
  double rate = cc.Update(CleanAck(10000, 20e9));
  EXPECT_DOUBLE_EQ(rate, 20e6);
  rate = cc.Update(CleanAck(10000, 20e9));
  EXPECT_DOUBLE_EQ(rate, 40e6);

  CcFeedback congested = CleanAck(10000, 20e9);
  congested.ecn_bytes = 5000;
  rate = cc.Update(congested);
  EXPECT_FALSE(cc.in_slow_start());
  EXPECT_LT(rate, 40e6);
}

// An interval without ACKs grows the rate in slow start only when the flow
// was held by its own bucket with nothing in flight (bucket_limited); an
// idle flow, or one with bytes in flight, keeps its rate. Congestion
// avoidance still grows on ACKs alone.
TEST(DctcpRateTest, SlowStartGrowsWhileBucketLimited) {
  DctcpRateConfig config;
  config.initial_bps = 10e6;
  DctcpRateCc cc(config);
  CcFeedback held;
  held.rtt = Us(50);
  held.bucket_limited = true;
  EXPECT_DOUBLE_EQ(cc.Update(held), 20e6);
  EXPECT_DOUBLE_EQ(cc.Update(held), 40e6);
  CcFeedback quiet;  // Idle, or bytes in flight: no ACKs, not held.
  quiet.rtt = Us(50);
  EXPECT_DOUBLE_EQ(cc.Update(quiet), 40e6);
  EXPECT_TRUE(cc.in_slow_start());

  CcFeedback congested = CleanAck(10000, 20e9);
  congested.ecn_bytes = 5000;
  const double after = cc.Update(congested);
  ASSERT_FALSE(cc.in_slow_start());
  EXPECT_DOUBLE_EQ(cc.Update(held), after);
}

TEST(DctcpRateTest, DecreaseProportionalToMarkedFraction) {
  DctcpRateConfig config;
  config.initial_bps = 1e9;
  DctcpRateCc cc(config);
  // Exit slow start with a fully marked interval.
  CcFeedback all_marked = CleanAck(100000, 100e9);
  all_marked.ecn_bytes = 100000;
  cc.Update(all_marked);
  const double alpha_after_one = cc.alpha();
  EXPECT_NEAR(alpha_after_one, 1.0 / 16.0, 1e-9);  // g * F with F=1.

  // Now a half-marked interval: decrease by alpha/2 where alpha grows.
  const double before = cc.rate_bps();
  CcFeedback half = CleanAck(100000, 100e9);
  half.ecn_bytes = 50000;
  const double after = cc.Update(half);
  const double expected_alpha = (1 - 1.0 / 16) * alpha_after_one + (1.0 / 16) * 0.5;
  EXPECT_NEAR(cc.alpha(), expected_alpha, 1e-9);
  EXPECT_NEAR(after, before * (1 - expected_alpha / 2), 1.0);
}

TEST(DctcpRateTest, AdditiveIncreaseWithoutCongestion) {
  DctcpRateConfig config;
  config.initial_bps = 1e9;
  config.additive_step_bps = 10e6;  // Paper default.
  DctcpRateCc cc(config);
  CcFeedback marked = CleanAck(100000, 100e9);
  marked.ecn_bytes = 1;
  cc.Update(marked);  // Exit slow start.
  const double base = cc.rate_bps();
  const double after = cc.Update(CleanAck(100000, 100e9));
  EXPECT_NEAR(after, base + 10e6, 1.0);
}

TEST(DctcpRateTest, RateCappedAtActualSendRatePlus20Percent) {
  DctcpRateConfig config;
  config.initial_bps = 10e9;
  DctcpRateCc cc(config);
  // Exit slow start first (the clamp is inactive during slow start: there
  // the rate itself is the limiter).
  CcFeedback marked = CleanAck(100000, 10e9);
  marked.ecn_bytes = 1;
  cc.Update(marked);
  // App-limited flow actually sending 1 Gbps: rate must be pulled down to
  // 1.2x the measured rate (above the 100 Mbps cap floor).
  const double after = cc.Update(CleanAck(100000, 1e9, /*app_limited=*/true));
  EXPECT_LE(after, 1.2e9 + 10e6 + 1);
  // A backlogged flow is never clamped: quantized per-interval ack counts
  // must not pin its rate.
  DctcpRateCc backlogged(config);
  backlogged.Update(marked);
  const double base = backlogged.rate_bps();
  EXPECT_GE(backlogged.Update(CleanAck(100000, 1e9, /*app_limited=*/false)), base);
}

TEST(DctcpRateTest, AppLimitedClampNeverBelowFloor) {
  DctcpRateConfig config;
  config.initial_bps = 10e9;
  DctcpRateCc cc(config);
  CcFeedback marked = CleanAck(100000, 10e9);
  marked.ecn_bytes = 1;
  cc.Update(marked);
  // Nearly idle request/response flow: the clamp stops at the floor so the
  // next response still bursts promptly.
  for (int i = 0; i < 5; ++i) {
    cc.Update(CleanAck(100, 1e6, /*app_limited=*/true));
  }
  EXPECT_GE(cc.rate_bps(), DctcpRateCc::kRateCapFloorBps);
}

TEST(DctcpRateTest, RetransmitHalvesRate) {
  DctcpRateConfig config;
  config.initial_bps = 1e9;
  DctcpRateCc cc(config);
  CcFeedback marked = CleanAck(100000, 100e9);
  marked.ecn_bytes = 1;
  cc.Update(marked);  // Exit slow start.
  const double base = cc.rate_bps();
  CcFeedback lost = CleanAck(100000, 100e9);
  lost.retransmits = 1;
  const double after = cc.Update(lost);
  EXPECT_NEAR(after, base / 2, 1.0);
}

TEST(DctcpRateTest, RateNeverBelowFloor) {
  DctcpRateConfig config;
  config.initial_bps = 2e6;
  config.min_bps = 1e6;
  DctcpRateCc cc(config);
  for (int i = 0; i < 50; ++i) {
    CcFeedback f = CleanAck(1000, 1e6);
    f.retransmits = 1;
    cc.Update(f);
  }
  EXPECT_GE(cc.rate_bps(), 1e6);
}

TEST(DctcpWindowTest, SlowStartGrowsByAckedBytes) {
  WindowCcConfig config;
  DctcpWindowCc cc(config);
  const uint64_t initial = cc.cwnd();
  cc.OnAck(1448, false, Us(50));
  EXPECT_EQ(cc.cwnd(), initial + 1448);
}

TEST(DctcpWindowTest, EcnReducesProportionally) {
  WindowCcConfig config;
  DctcpWindowCc cc(config);
  // Drive a full observation window fully marked.
  const uint64_t start = cc.cwnd();
  uint64_t acked = 0;
  while (acked < start) {
    cc.OnAck(1448, true, Us(50));
    acked += 1448;
  }
  EXPECT_LT(cc.cwnd(), start + acked);  // Reduced versus pure slow start.
  EXPECT_GT(cc.alpha(), 0.0);
}

TEST(DctcpWindowTest, TimeoutCollapsesToMinimum) {
  WindowCcConfig config;
  DctcpWindowCc cc(config);
  for (int i = 0; i < 20; ++i) {
    cc.OnAck(1448, false, Us(50));
  }
  cc.OnTimeout();
  EXPECT_EQ(cc.cwnd(), config.mss * kMinCwndSegments);
}

TEST(WindowRateTest, PublishesOneWindowPerRtt) {
  auto owned = std::make_unique<DctcpWindowCc>(WindowCcConfig{});
  const DctcpWindowCc* window = owned.get();
  WindowRateCc cc(std::move(owned), 10e6);
  // No RTT sample yet: the window grows but the rate stays initial.
  CcFeedback no_rtt = CleanAck(1448);
  no_rtt.rtt = 0;
  EXPECT_EQ(cc.Update(no_rtt), 10e6);
  const uint64_t grown = window->cwnd();
  EXPECT_EQ(grown, 11 * 1448u);
  // First sample: cwnd x 8 / rtt, after the interval's ACKs grow cwnd.
  EXPECT_DOUBLE_EQ(cc.Update(CleanAck(1448)), (grown + 1448) * 8e9 / 50e3);
  // A timeout collapses the window, and the rate with it.
  CcFeedback timeout;
  timeout.rtt = Us(50);
  timeout.retransmits = 1;
  timeout.timed_out = true;
  EXPECT_DOUBLE_EQ(cc.Update(timeout), 2 * 1448 * 8e9 / 50e3);
}

TEST(NewRenoTest, FastRetransmitHalves) {
  WindowCcConfig config;
  NewRenoCc cc(config);
  for (int i = 0; i < 100; ++i) {
    cc.OnAck(1448, false, Us(50));
  }
  const uint64_t before = cc.cwnd();
  cc.OnFastRetransmit();
  EXPECT_NEAR(static_cast<double>(cc.cwnd()), static_cast<double>(before) / 2,
              static_cast<double>(config.mss));
}

TEST(NewRenoTest, CongestionAvoidanceLinear) {
  WindowCcConfig config;
  NewRenoCc cc(config);
  cc.OnFastRetransmit();  // Set ssthresh = cwnd/2 and leave slow start.
  const uint64_t base = cc.cwnd();
  // One full window of acks should add about one MSS.
  uint64_t acked = 0;
  while (acked < base) {
    cc.OnAck(1448, false, Us(50));
    acked += 1448;
  }
  EXPECT_NEAR(static_cast<double>(cc.cwnd()), static_cast<double>(base + config.mss),
              static_cast<double>(config.mss));
}

TEST(NewRenoTest, IgnoresEcn) {
  WindowCcConfig config;
  NewRenoCc cc(config);
  const uint64_t before = cc.cwnd();
  cc.OnAck(1448, true, Us(50));  // ECE set: NewReno does not react.
  EXPECT_GT(cc.cwnd(), before);
}

TEST(TimelyTest, SlowStartThenGradientControl) {
  TimelyConfig config;
  config.initial_bps = 10e6;
  TimelyCc cc(config);
  CcFeedback f = CleanAck(10000, 100e9);
  f.rtt = Us(40);  // Below t_high: keep doubling.
  cc.Update(f);
  EXPECT_DOUBLE_EQ(cc.rate_bps(), 20e6);
  EXPECT_TRUE(cc.in_slow_start());

  f.rtt = Us(600);  // Above t_high: exit slow start.
  cc.Update(f);
  EXPECT_FALSE(cc.in_slow_start());
}

TEST(TimelyTest, SlowStartGrowsWhileBucketLimited) {
  TimelyConfig config;
  config.initial_bps = 10e6;
  TimelyCc cc(config);
  CcFeedback held;
  held.rtt = Us(40);
  held.bucket_limited = true;
  EXPECT_DOUBLE_EQ(cc.Update(held), 20e6);
  EXPECT_DOUBLE_EQ(cc.Update(held), 40e6);
  CcFeedback quiet;  // Idle, or bytes in flight: no ACKs, not held.
  quiet.rtt = Us(40);
  EXPECT_DOUBLE_EQ(cc.Update(quiet), 40e6);
  EXPECT_TRUE(cc.in_slow_start());
}

TEST(TimelyTest, HighRttDecreases) {
  TimelyConfig config;
  config.initial_bps = 1e9;
  TimelyCc cc(config);
  CcFeedback f = CleanAck(10000, 100e9);
  f.rtt = Us(600);
  cc.Update(f);  // Exits slow start.
  const double base = cc.rate_bps();
  f.rtt = Us(800);
  const double after = cc.Update(f);
  EXPECT_LT(after, base);
}

TEST(TimelyTest, LowRttIncreases) {
  TimelyConfig config;
  config.initial_bps = 1e9;
  config.additive_step_bps = 10e6;
  TimelyCc cc(config);
  CcFeedback f = CleanAck(10000, 100e9);
  f.rtt = Us(600);
  cc.Update(f);  // Exit slow start.
  const double base = cc.rate_bps();
  f.rtt = Us(30);  // Below t_low.
  const double after = cc.Update(f);
  EXPECT_NEAR(after, base + 10e6, 1.0);
}

TEST(RttEstimatorTest, FirstSampleInitializes) {
  RttEstimator est;
  est.AddSample(Us(100));
  EXPECT_EQ(est.srtt(), Us(100));
  EXPECT_EQ(est.rttvar(), Us(50));
}

TEST(RttEstimatorTest, ConvergesToStableRtt) {
  RttEstimator est;
  for (int i = 0; i < 100; ++i) {
    est.AddSample(Us(200));
  }
  EXPECT_NEAR(static_cast<double>(est.srtt()), static_cast<double>(Us(200)),
              static_cast<double>(Us(2)));
  // RTO approaches srtt + 4*rttvar, clamped at min_rto = 1ms.
  EXPECT_GE(est.Rto(), Ms(1));
}

TEST(RttEstimatorTest, BackoffDoublesRto) {
  RttEstimator est(Us(100), Sec(60));
  for (int i = 0; i < 20; ++i) {
    est.AddSample(Ms(2));
  }
  const TimeNs base = est.Rto();
  est.Backoff();
  EXPECT_EQ(est.Rto(), base * 2);
  est.Backoff();
  EXPECT_EQ(est.Rto(), base * 4);
  est.ResetBackoff();
  EXPECT_EQ(est.Rto(), base);
}

TEST(RttEstimatorTest, RtoClampedToMax) {
  RttEstimator est(Ms(1), Ms(100));
  est.AddSample(Ms(50));
  for (int i = 0; i < 10; ++i) {
    est.Backoff();
  }
  EXPECT_EQ(est.Rto(), Ms(100));
}

}  // namespace
}  // namespace tas
