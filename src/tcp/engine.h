// Generic TCP connection engine: the full protocol state machine used by the
// baseline stacks (Linux / IX / mTCP models).
//
// This is a real TCP implementation over the simulated network — three-way
// handshake, sliding window with window scaling, per-packet ACKs with SACK,
// fast retransmit on three duplicate ACKs, SACK-driven hole retransmission,
// RTO with exponential backoff, FIN/RST teardown, TCP timestamps for RTT,
// and ECN echo (ECE/CWR) feeding window-based DCTCP. TAS's own fast/slow
// path (src/tas) is an independent implementation; the two interoperate in
// tests and in the Table 4 compatibility experiment.
//
// The engine contains protocol logic only. CPU cycle charging, packet
// demultiplexing and listen sockets live in the owning stack, which talks to
// the engine through TcpEngineHost.
#ifndef SRC_TCP_ENGINE_H_
#define SRC_TCP_ENGINE_H_

#include <cstdint>
#include <memory>

#include "src/cc/cc.h"
#include "src/net/packet.h"
#include "src/sim/simulator.h"
#include "src/tcp/reassembly.h"
#include "src/tcp/rtt.h"
#include "src/util/ring_buffer.h"

namespace tas {

class TcpConnection;

// Callbacks from the engine into the owning stack.
class TcpEngineHost {
 public:
  virtual ~TcpEngineHost() = default;

  // Emit a packet toward the NIC (the stack charges TX cycles and may delay).
  virtual void EmitPacket(TcpConnection* conn, PacketPtr pkt) = 0;
  // Handshake completed (either direction).
  virtual void OnConnected(TcpConnection* conn) = 0;
  // Active open failed (timeout or RST in SYN_SENT).
  virtual void OnConnectFailed(TcpConnection* conn) = 0;
  // `bytes` of new in-order payload are readable via Recv().
  virtual void OnDataAvailable(TcpConnection* conn, size_t bytes) = 0;
  // Send-buffer space was reclaimed by an ACK.
  virtual void OnSendSpace(TcpConnection* conn, size_t bytes_freed) = 0;
  // Peer initiated close and all preceding data was delivered.
  virtual void OnRemoteClose(TcpConnection* conn) = 0;
  // Connection fully terminated (TIME_WAIT expired, LAST_ACK done, or RST).
  virtual void OnClosed(TcpConnection* conn) = 0;
};

struct TcpConfig {
  uint64_t mss = 1448;
  size_t tx_buffer_bytes = 128 * 1024;
  size_t rx_buffer_bytes = 128 * 1024;
  CcAlgorithm cc = CcAlgorithm::kDctcpWindow;
};

class TcpConnection {
 public:
  enum class State {
    kClosed,
    kSynSent,
    kSynRcvd,
    kEstablished,
    kFinWait1,
    kFinWait2,
    kCloseWait,
    kClosing,
    kLastAck,
    kTimeWait,
  };

  TcpConnection(Simulator* sim, TcpEngineHost* host, const TcpConfig& config, IpAddr local_ip,
                uint16_t local_port, IpAddr remote_ip, uint16_t remote_port, uint32_t isn);
  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // --- Open/close ----------------------------------------------------------
  void Connect();                      // Active open: send SYN.
  void AcceptSyn(const Packet& syn);   // Passive open: consume peer SYN, send SYN-ACK.
  void Close();                        // Half-close: FIN after queued data.
  void Abort();                        // RST and drop state.

  // --- Data transfer -------------------------------------------------------
  // Appends to the send buffer; returns bytes accepted. Triggers transmit.
  size_t Send(const uint8_t* data, size_t len);
  // Reads in-order received payload; returns bytes read. May emit a window
  // update if the advertised window had collapsed.
  size_t Recv(uint8_t* data, size_t len);
  size_t RecvAvailable() const { return deliverable_; }
  size_t SendSpace() const { return tx_ring_.free_space(); }

  // --- Packet input (from the stack demux) ----------------------------------
  void HandlePacket(const Packet& pkt);

  // --- Introspection -------------------------------------------------------
  State state() const { return state_; }
  bool established() const { return state_ == State::kEstablished; }
  IpAddr local_ip() const { return local_ip_; }
  uint16_t local_port() const { return local_port_; }
  IpAddr remote_ip() const { return remote_ip_; }
  uint16_t remote_port() const { return remote_port_; }
  const RttEstimator& rtt() const { return rtt_; }
  uint64_t bytes_acked() const { return snd_una_data_; }
  uint64_t bytes_received() const { return rcv_nxt_data_; }
  uint32_t fast_retransmits() const { return fast_retransmits_; }
  uint32_t timeout_retransmits() const { return timeout_retransmits_; }

  // Application-defined tag (mirrors TAS's `opaque`).
  uint64_t opaque = 0;

 private:
  // Sequence-space mapping: wire_seq = isn + 1 + data_offset for payload;
  // the SYN occupies isn, the FIN occupies isn + 1 + total_data.
  uint32_t TxWireSeq(uint64_t data_offset) const { return iss_ + 1 + static_cast<uint32_t>(data_offset); }
  uint64_t UnwrapRxSeq(uint32_t seq) const;
  uint64_t UnwrapAck(uint32_t ack) const;
  uint32_t CurrentAckField() const;
  uint16_t AdvertisedWindowField() const;
  uint64_t AdvertisedWindowBytes() const;

  PacketPtr BuildPacket(uint8_t flags, uint64_t seq_data_offset, std::vector<uint8_t> payload);
  // Emits our SYN (SYN_SENT) or SYN-ACK (SYN_RCVD) and arms the RTO. First
  // transmissions and retransmissions carry the same options.
  void SendSyn(bool retransmit);
  void SendSegment(uint64_t data_offset, uint64_t len, bool is_retransmit);
  void SendPureAck(bool dupack_with_sack);
  void ArmDelayedAck();
  void TryTransmit();
  void ProcessAck(const Packet& pkt);
  void ProcessData(const Packet& pkt, uint64_t payload_data_offset);
  void RetransmitHole();
  void ArmRtoTimer();
  void CancelRtoTimer();
  void OnRtoExpired();
  void EnterTimeWait();
  void FinalizeClose();
  void HandleRst();
  uint64_t OutstandingBytes() const { return snd_nxt_data_ - snd_una_data_; }
  bool FinOutstanding() const;

  Simulator* sim_;
  TcpEngineHost* host_;
  TcpConfig config_;
  IpAddr local_ip_;
  uint16_t local_port_;
  IpAddr remote_ip_;
  uint16_t remote_port_;

  State state_ = State::kClosed;
  uint32_t iss_;       // Our initial sequence number.
  uint32_t irs_ = 0;   // Peer's initial sequence number.

  // Send side (64-bit data offsets; ring tail == snd_una_data_).
  ByteRing tx_ring_;
  uint64_t snd_una_data_ = 0;
  uint64_t snd_nxt_data_ = 0;
  uint64_t snd_max_data_ = 0;  // High-water mark (survives RTO rewinds).
  uint64_t peer_rwnd_ = 0;          // Advertised by peer, already descaled.
  uint8_t peer_wscale_ = 0;
  bool fin_queued_ = false;         // App called Close().
  bool fin_sent_ = false;
  bool fin_acked_ = false;
  int dupack_count_ = 0;
  uint64_t recovery_point_ = 0;     // snd_nxt at loss; recovery until acked.
  bool in_recovery_ = false;
  ReassemblyBuffer sack_scoreboard_;  // Peer-SACKed ranges (sender side).
  uint64_t retransmit_hole_next_ = 0;

  // Receive side.
  ByteRing rx_ring_;
  uint64_t rcv_nxt_data_ = 0;
  size_t deliverable_ = 0;          // In-order bytes not yet Recv()'d.
  ReassemblyBuffer reassembly_;     // Out-of-order bookkeeping for SACK.
  bool rcv_fin_seen_ = false;
  uint64_t rcv_fin_offset_ = 0;
  bool pending_ack_ = false;        // Data arrived; ACK owed this event.
  bool pending_dupack_sack_ = false;
  bool send_cwr_ = false;           // Echo CWR on next data segment.
  bool this_packet_ce_ = false;     // CE mark on the packet being processed.
  int segments_sent_in_event_ = 0;  // For ACK piggybacking.

  // Timers and estimation. DeadlineTimers: the RTO re-arms on every send
  // and every ACK, and the delayed-ACK timer is usually cancelled by a
  // piggybacked ACK — lazy deadlines keep that churn out of the event heap.
  RttEstimator rtt_;
  DeadlineTimer rto_timer_;
  DeadlineTimer time_wait_timer_;
  DeadlineTimer delayed_ack_timer_;
  uint64_t unacked_rx_bytes_ = 0;  // Data received since our last ACK.
  int retries_ = 0;

  std::unique_ptr<WindowCc> cc_;
  uint32_t fast_retransmits_ = 0;
  uint32_t timeout_retransmits_ = 0;
  uint32_t ts_echo_ = 0;            // Latest peer ts_val to echo.
  uint64_t sendspace_pending_ = 0;  // Freed bytes awaiting app notification.
  bool destroying_ = false;
};

}  // namespace tas

#endif  // SRC_TCP_ENGINE_H_
