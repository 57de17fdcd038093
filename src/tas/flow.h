// Runtime flow record, split hot/cold for million-flow cache residency
// (paper §3.1, Table 3): `Flow` is the compact record the fast path touches
// per packet — the packed FlowState, negotiated parameters, and transmit
// pacing — while `FlowCold` holds what the per-packet header path never
// reads: payload ring storage, the congestion-control instance, and the
// connection-FSM bookkeeping. FlowSlab stores the two in parallel arrays and
// wires each Flow to its side record; a standalone Flow (tests, scratch use)
// lazily owns one instead.
#ifndef SRC_TAS_FLOW_H_
#define SRC_TAS_FLOW_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/cc/cc.h"
#include "src/sim/simulator.h"
#include "src/tas/flow_state.h"
#include "src/util/ring_buffer.h"
#include "src/util/time.h"

namespace tas {

// Slow-path connection FSM. The fast path handles a flow's common case in
// each direction it still carries (Flow::FastPathEligible and
// RxFastPathEligible); everything else is an exception (paper §3.1).
enum class ConnState : uint8_t {
  kSynSent,
  kSynRcvd,
  kEstablished,
  kFinWait1,   // Our FIN sent, not acked.
  kFinWait2,   // Our FIN acked, waiting for peer FIN.
  kCloseWait,  // Peer FIN consumed, app has not closed yet.
  kLastAck,    // Peer closed first, our FIN sent.
  kTimeWait,
  kFreed,
};
constexpr size_t kNumConnStates = static_cast<size_t>(ConnState::kFreed) + 1;

// Cold side record. The per-packet header path never reads it; keeping it
// out of Flow keeps the hot array dense. Payload copies reach the ring
// storage here, next to the payload bytes they move.
struct FlowCold {
  // Payload ring storage. In the real system these arrays live in app shared
  // memory. fs.rx_size/tx_size are their logical sizes; the arrays grow with
  // the bytes in flight (src/util/ring_buffer.h) and fs.rx_base/tx_base
  // track them.
  RingStorage<uint32_t> rx_mem;
  RingStorage<uint32_t> tx_mem;

  std::unique_ptr<RateCc> cc;     // Congestion-control policy.
  TimeNs cc_updated = 0;          // Last control-loop update (or allocation).
  uint32_t last_seq_sampled = 0;  // RTO detection: seq unchanged across
  int stalled_intervals = 0;      // control intervals with data outstanding.
  bool fin_received = false;      // Peer FIN consumed (ack covers it).
  bool fin_acked = false;
  bool app_closed = false;        // App requested close.
  bool fin_event_sent = false;    // kConnFin (half-close) pushed to the app.
  bool closed_event_sent = false;
  bool in_pending = false;        // On the handshake/teardown scan list.
  // The flow's one pacing event: armed by TasService::ScheduleFlowTx while
  // the bucket lacks credit for the next segment, moved earlier when the
  // slow path raises the rate (TasService::PublishRate).
  EventHandle pacing_timer;
  int ctrl_retries = 0;           // Handshake / FIN retransmission count.
  TimeNs last_ctrl_send = 0;
  TimeNs timewait_start = 0;
  TimeNs established_at = 0;

  // Returns to freshly-constructed state. The payload storage is released
  // (if the stream's end has not released it already) and a pacing timer
  // still armed is cancelled, so a freed flow holds no buffer memory and no
  // event; nothing here allocates, so slab slot recycling stays
  // allocation-free.
  void Reset();
};

struct Flow {
  FlowState fs;

  // Negotiated TCP parameters (slow path writes once at setup).
  uint16_t mss = 1448;
  uint8_t peer_wscale = 0;
  uint32_t ts_echo = 0;  // Peer ts_val to echo (fast path updates).

  // --- Fast-path transmit scheduling ---------------------------------------
  // Rate enforcement via the per-flow bucket (paper §3.1): credit accrues at
  // rate_bps while the flow is idle, capped at a small burst, so an RPC
  // response is never delayed behind a stale pacing gap. A rate the slow
  // path publishes applies from that instant: a raised rate moves an armed
  // pacing timer to when the bucket allows at the new rate. A new flow
  // starts with one initial window of credit (TasService::AllocateFlow),
  // which may sit above the cap until it is spent.
  double rate_bps = 10e6;       // Enforced rate (TasService::PublishRate sets).
  double tx_tokens = 0;         // Bucket fill, in bytes.
  TimeNs tokens_updated = 0;
  TimeNs next_tx_time = 0;      // Earliest next segment (bucket refill time).
  bool tx_pending = false;      // Work queued or pacing timer armed.
  bool in_dirty = false;        // Listed or queued for a control-loop visit.
  ConnState cstate = ConnState::kSynSent;

  // Refreshes the bucket to `now` and returns the available byte credit.
  // Accrual stops at `burst_bytes`; credit already above it (the unspent
  // initial window) is kept.
  double RefillTokens(TimeNs now, double burst_bytes) {
    const double delta = static_cast<double>(now - tokens_updated);
    if (tx_tokens < burst_bytes) {
      tx_tokens = std::min(burst_bytes, tx_tokens + rate_bps / 8e9 * delta);
    }
    tokens_updated = now;
    return tx_tokens;
  }
  // The bucket's cap: two full segments.
  double BurstBytes() const { return 2.0 * mss; }
  // Time from tokens_updated until the bucket holds `len` bytes of credit
  // at rate_bps; 0 when it already does.
  TimeNs CreditWait(uint32_t len) const {
    const double need = static_cast<double>(len) - tx_tokens;
    return need <= 0 ? 0 : static_cast<TimeNs>(need * 8e9 / rate_bps) + 1;
  }

  // --- Cold side record -----------------------------------------------------
  // Slab-resident flows are bound to their chunk's parallel FlowCold array;
  // a standalone Flow allocates an owned record on first access.
  FlowCold& cold() { return cold_ptr_ != nullptr ? *cold_ptr_ : EnsureCold(); }
  const FlowCold& cold() const { return const_cast<Flow*>(this)->cold(); }
  void BindCold(FlowCold* cold_record) { cold_ptr_ = cold_record; }

  // The two per-direction predicates. Transmit: our direction is open, so
  // the fast path sends data and window updates and takes every segment
  // without SYN/FIN/RST, payload or not. kCloseWait is one: after the peer's
  // FIN the local direction stays open (half-close), and the remaining
  // transmit stream is exactly the established-flow common case (data out,
  // ACKs in).
  bool FastPathEligible() const {
    return cstate == ConnState::kEstablished || cstate == ConnState::kCloseWait;
  }
  // Receive: the peer's direction is still open, so its payload segments
  // (no SYN/FIN/RST) take the fast path's RX path. kFinWait1/2 add to the
  // transmit set: after our FIN a half-closed peer may keep streaming (a
  // proxy's response). Their payload-less segments and all SYN/FIN/RST stay
  // slow-path exceptions: closing-flow data on the fast path, teardown
  // control on the slow path.
  bool RxFastPathEligible() const {
    return FastPathEligible() || cstate == ConnState::kFinWait1 ||
           cstate == ConnState::kFinWait2;
  }
  // Sequence number of a pure ACK. Once our FIN is out (the states below),
  // it holds fs.seq and ACKs carry FIN + 1.
  uint32_t AckSeq() const {
    const bool fin_sent = cstate == ConnState::kFinWait1 || cstate == ConnState::kFinWait2 ||
                          cstate == ConnState::kLastAck || cstate == ConnState::kTimeWait;
    return fs.seq + (fin_sent ? 1 : 0);
  }

  // Returns the record (hot fields and the bound cold record) to
  // freshly-constructed state; allocation-free for slab-resident flows.
  void Reset();

  // --- Buffer arithmetic (all positions are free-running wire sequences) ---
  // These read the logical sizes fs.rx_size/tx_size, never the storage
  // behind them, so the advertised window does not depend on how much of a
  // buffer has been materialised.
  uint32_t RxUsed() const { return fs.rx_head - fs.rx_tail; }
  uint32_t RxFree() const { return fs.rx_size - RxUsed(); }
  // Window field of an outgoing non-SYN segment: RxFree() scaled down by the
  // window scale every TAS SYN / SYN-ACK advertises.
  static constexpr uint8_t kWindowScale = 7;
  uint16_t WindowField() const {
    return static_cast<uint16_t>(std::min<uint32_t>(RxFree() >> kWindowScale, 0xFFFF));
  }
  uint32_t TxQueued() const { return fs.tx_head - fs.tx_tail; }
  // Bytes written by the app but not yet sent.
  uint32_t TxAvailable() const { return fs.tx_head - (fs.tx_tail + fs.tx_sent); }
  // Length of the next data segment: unsent bytes, capped by the MSS and the
  // peer's window.
  uint32_t NextSegmentLen() const;

  // Payload copies through the cold record's ring storage; writes grow it on
  // demand and refresh fs.rx_base/tx_base.
  void CopyIntoRx(uint32_t wire_pos, const uint8_t* src, uint32_t len);
  void AppendFromTx(uint32_t wire_pos, uint32_t len, std::vector<uint8_t>* out) const;
  // libTAS side: append payload at tx_head / read payload at rx_tail. A read
  // that drains the ring after the peer's FIN releases it.
  uint32_t AppWriteTx(const uint8_t* src, uint32_t len);
  uint32_t AppReadRx(uint8_t* dst, uint32_t len);

  // Storage lifetime is stream lifetime: frees each payload ring no byte can
  // reach again and nulls its fs.*_base. TX goes once our FIN is acked (every
  // written byte was acked before it was sent); RX once the peer's FIN is
  // consumed and the app has read every byte. Called where either stream
  // ends (FIN acked, FIN consumed, RX drained); a later write would regrow
  // the ring from nothing.
  void ReleaseFinishedRings();

 private:
  FlowCold& EnsureCold();

  FlowCold* cold_ptr_ = nullptr;          // Slab-bound side record, if any.
  std::unique_ptr<FlowCold> owned_cold_;  // Standalone-Flow fallback.
};

const char* ConnStateName(ConnState state);
// Lower-case name for metric and record keys ("fin_wait_2").
std::string ConnStateKey(ConnState state);

}  // namespace tas

#endif  // SRC_TAS_FLOW_H_
