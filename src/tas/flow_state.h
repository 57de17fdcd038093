// Per-flow fast-path state, mirroring paper Table 3.
//
// This struct is the operational state the fast path reads and writes for
// every packet — the paper's central capacity claim ("102 bytes of per-flow
// state ... more than 20,000 active flows per core in L2/L3 cache") rests on
// it staying tiny. The layout below follows Table 3 field-for-field with the
// same widths; our packed size is 103 bytes because dupack_cnt occupies a
// full byte where the paper packs it into 4 bits.
//
// Positions (rx|tx head/tail, tx_sent) are 32-bit offsets in wire-sequence
// space, exactly like the original C implementation: all comparisons are
// modular (src/tcp/seq.h). Buffer memory lives in the untrusted app library
// (libTAS owns the payload arrays); rx_base/tx_base track those arrays,
// which grow with the bytes in flight (FlowCold), while rx_size/tx_size keep
// the configured sizes.
#ifndef SRC_TAS_FLOW_STATE_H_
#define SRC_TAS_FLOW_STATE_H_

#include <cstdint>

#include "src/net/packet.h"

namespace tas {

using FlowId = uint32_t;
inline constexpr FlowId kInvalidFlow = ~FlowId{0};

#pragma pack(push, 1)
struct FlowState {
  // --- Identification and steering ----------------------------------------
  uint64_t opaque = 0;        // Application-defined flow identifier.
  uint16_t context = 0;       // RX/TX context queue number.
  uint8_t bucket[3] = {};     // Rate bucket number (24 bits).

  // --- Payload buffers (owned by untrusted user space) ---------------------
  uint8_t* rx_base = nullptr;  // rx_start (Table 3).
  uint8_t* tx_base = nullptr;  // tx_start.
  uint32_t rx_size = 0;
  uint32_t tx_size = 0;
  // rx_head: next write position (== bytes received, mod 2^32, offset from
  // irs+1). rx_tail: app read position, advanced by libTAS.
  uint32_t rx_head = 0;
  uint32_t rx_tail = 0;
  // tx_head: app write position, advanced by libTAS. tx_tail: first
  // unacknowledged byte (fast path reclaims on ACK).
  uint32_t tx_head = 0;
  uint32_t tx_tail = 0;
  uint32_t tx_sent = 0;       // Sent-but-unacked bytes beyond tx_tail.

  // --- TCP state ------------------------------------------------------------
  uint32_t seq = 0;           // Wire seq of the next NEW payload byte to send.
  uint32_t ack = 0;           // Next expected peer wire seq (rcv_nxt).
  uint16_t window = 0;        // Peer receive window, already descaled, in KB
                              // granules (see kWindowGranule) to fit 16 bits.
  uint8_t dupack_cnt = 0;     // Paper packs this into 4 bits.
  uint16_t local_port = 0;
  uint32_t peer_ip = 0;
  uint16_t peer_port = 0;
  uint8_t peer_mac[6] = {};   // For header generation (segmentation).
  uint32_t ooo_start = 0;     // Out-of-order interval start (wire seq).
  uint32_t ooo_len = 0;       // 0 = no interval tracked.

  // --- Congestion feedback for the slow path -------------------------------
  uint32_t cnt_ackb = 0;      // Bytes acked since last control iteration.
  uint32_t cnt_ecnb = 0;      // Of those, bytes carrying ECN echo.
  uint8_t cnt_frexmits = 0;   // Fast retransmits triggered.
  uint32_t rtt_est = 0;       // Microseconds (EWMA).
};
#pragma pack(pop)

static_assert(sizeof(FlowState) == 103,
              "FlowState must stay within one byte of the paper's 102 bytes");

// Peer window granularity: stored window = bytes >> kWindowGranuleShift, so
// 16 bits cover 4 GB-scaled windows after window scaling.
inline constexpr int kWindowGranuleShift = 7;

inline uint64_t PeerWindowBytes(const FlowState& fs) {
  return static_cast<uint64_t>(fs.window) << kWindowGranuleShift;
}

inline void SetPeerWindowBytes(FlowState& fs, uint64_t bytes) {
  const uint64_t granules = bytes >> kWindowGranuleShift;
  fs.window = static_cast<uint16_t>(granules > 0xFFFF ? 0xFFFF : granules);
}

inline uint32_t BucketOf(const FlowState& fs) {
  return static_cast<uint32_t>(fs.bucket[0]) | (static_cast<uint32_t>(fs.bucket[1]) << 8) |
         (static_cast<uint32_t>(fs.bucket[2]) << 16);
}

inline void SetBucket(FlowState& fs, uint32_t bucket) {
  fs.bucket[0] = static_cast<uint8_t>(bucket);
  fs.bucket[1] = static_cast<uint8_t>(bucket >> 8);
  fs.bucket[2] = static_cast<uint8_t>(bucket >> 16);
}

}  // namespace tas

#endif  // SRC_TAS_FLOW_STATE_H_
