#include "src/tcp/engine.h"

#include <algorithm>

#include "src/cc/dctcp_window.h"
#include "src/cc/newreno.h"
#include "src/sim/context.h"
#include "src/tcp/seq.h"
#include "src/util/logging.h"

namespace tas {
namespace {

// Window scale we advertise in SYN / SYN-ACK and apply to our window field.
constexpr uint8_t kWindowScale = 7;
constexpr TimeNs kTimeWait = Ms(5);
// Delayed ACKs (RFC 1122): pure ACKs wait up to this long (or two MSS of
// unacked data) hoping to piggyback on reverse data. Dupacks, ECN echoes and
// FIN handling always ACK immediately.
constexpr TimeNs kDelayedAck = Us(100);
constexpr int kMaxSynRetries = 5;
constexpr int kMaxDataRetries = 15;

std::unique_ptr<WindowCc> MakeWindowCc(CcAlgorithm algorithm) {
  switch (algorithm) {
    case CcAlgorithm::kDctcpWindow:
      return std::make_unique<DctcpWindowCc>();
    case CcAlgorithm::kNewReno:
      return std::make_unique<NewRenoCc>();
    default:
      TAS_LOG(FATAL) << "TcpConnection requires a window-based CC algorithm";
      return nullptr;
  }
}

// TCP timestamps carry microseconds truncated to 32 bits.
uint32_t TsNow(Simulator* sim) { return static_cast<uint32_t>(sim->Now() / kNsPerUs); }

}  // namespace


TcpConnection::TcpConnection(Simulator* sim, TcpEngineHost* host, const TcpConfig& config,
                             IpAddr local_ip, uint16_t local_port, IpAddr remote_ip,
                             uint16_t remote_port, uint32_t isn)
    : sim_(sim),
      host_(host),
      config_(config),
      local_ip_(local_ip),
      local_port_(local_port),
      remote_ip_(remote_ip),
      remote_port_(remote_port),
      iss_(isn),
      tx_ring_(config.tx_buffer_bytes),
      rx_ring_(config.rx_buffer_bytes),
      rto_timer_(sim, [this] { OnRtoExpired(); }),
      time_wait_timer_(sim, [this] { FinalizeClose(); }),
      delayed_ack_timer_(sim, [this] {
        if (state_ != State::kClosed) {
          SendPureAck(false);
        }
      }) {
  cc_ = MakeWindowCc(config.cc);
}

TcpConnection::~TcpConnection() {
  destroying_ = true;
  rto_timer_.Cancel();
  time_wait_timer_.Cancel();
  delayed_ack_timer_.Cancel();
}

uint64_t TcpConnection::UnwrapRxSeq(uint32_t seq) const {
  return UnwrapSeq(irs_ + 1, seq, rcv_nxt_data_);
}

uint64_t TcpConnection::UnwrapAck(uint32_t ack) const {
  return UnwrapSeq(iss_ + 1, ack, snd_una_data_);
}

uint32_t TcpConnection::CurrentAckField() const {
  uint32_t ack = irs_ + 1 + static_cast<uint32_t>(rcv_nxt_data_);
  if (rcv_fin_seen_ && rcv_nxt_data_ >= rcv_fin_offset_) {
    ack += 1;  // FIN consumed.
  }
  return ack;
}

uint64_t TcpConnection::AdvertisedWindowBytes() const { return rx_ring_.free_space(); }

uint16_t TcpConnection::AdvertisedWindowField() const {
  const uint64_t window = AdvertisedWindowBytes() >> kWindowScale;
  return static_cast<uint16_t>(std::min<uint64_t>(window, 0xFFFF));
}

PacketPtr TcpConnection::BuildPacket(uint8_t flags, uint64_t seq_data_offset,
                                     std::vector<uint8_t> payload) {
  auto pkt = MakeTcpPacket(sim_->context().pool(), local_ip_, local_port_, remote_ip_,
                           remote_port_, TxWireSeq(seq_data_offset), 0, flags,
                           std::move(payload));
  if ((flags & TcpFlags::kAck) != 0) {
    pkt->tcp.ack = CurrentAckField();
  }
  pkt->tcp.window = AdvertisedWindowField();
  pkt->tcp.has_timestamps = true;
  pkt->tcp.ts_val = TsNow(sim_);
  pkt->tcp.ts_ecr = ts_echo_;
  pkt->enqueued_at = sim_->Now();
  return pkt;
}

void TcpConnection::SendSyn(bool retransmit) {
  const bool synack = state_ == State::kSynRcvd;
  auto syn = MakeTcpPacket(sim_->context().pool(), local_ip_, local_port_, remote_ip_,
                           remote_port_, iss_, synack ? irs_ + 1 : 0,
                           synack ? TcpFlags::kSyn | TcpFlags::kAck : TcpFlags::kSyn);
  syn->tcp.has_mss = true;
  syn->tcp.mss = static_cast<uint16_t>(config_.mss);
  syn->tcp.has_wscale = true;
  syn->tcp.wscale = kWindowScale;
  if (!retransmit) {
    // SYN windows are unscaled. A retransmission leaves the field 0, which
    // the peer takes as a closed window until our next segment (see
    // ROADMAP: setting it moves Fig 13's Linux medians).
    syn->tcp.window = static_cast<uint16_t>(std::min<uint64_t>(AdvertisedWindowBytes(), 0xFFFF));
  }
  syn->tcp.has_timestamps = true;
  syn->tcp.ts_val = TsNow(sim_);
  if (synack) {
    syn->tcp.ts_ecr = ts_echo_;
  }
  syn->enqueued_at = sim_->Now();
  host_->EmitPacket(this, std::move(syn));
  ArmRtoTimer();
}

void TcpConnection::Connect() {
  TAS_CHECK(state_ == State::kClosed);
  state_ = State::kSynSent;
  SendSyn(/*retransmit=*/false);
}

void TcpConnection::AcceptSyn(const Packet& syn) {
  TAS_CHECK(state_ == State::kClosed);
  TAS_CHECK(syn.tcp.syn());
  irs_ = syn.tcp.seq;
  if (syn.tcp.has_mss) {
    config_.mss = std::min<uint64_t>(config_.mss, syn.tcp.mss);
  }
  peer_wscale_ = syn.tcp.has_wscale ? syn.tcp.wscale : 0;
  peer_rwnd_ = syn.tcp.window;  // SYN windows are unscaled.
  if (syn.tcp.has_timestamps) {
    ts_echo_ = syn.tcp.ts_val;
  }
  state_ = State::kSynRcvd;
  SendSyn(/*retransmit=*/false);
}

void TcpConnection::Close() {
  switch (state_) {
    case State::kEstablished:
    case State::kCloseWait:
      fin_queued_ = true;
      TryTransmit();
      break;
    case State::kSynSent:
      FinalizeClose();
      break;
    default:
      break;  // Already closing.
  }
}

void TcpConnection::Abort() {
  if (state_ == State::kClosed) {
    return;
  }
  auto rst = BuildPacket(TcpFlags::kRst | TcpFlags::kAck, snd_nxt_data_, {});
  host_->EmitPacket(this, std::move(rst));
  FinalizeClose();
}

size_t TcpConnection::Send(const uint8_t* data, size_t len) {
  if (state_ != State::kEstablished && state_ != State::kCloseWait) {
    return 0;
  }
  if (fin_queued_) {
    return 0;
  }
  const size_t written = tx_ring_.Write(data, len);
  if (written > 0) {
    TryTransmit();
  }
  return written;
}

size_t TcpConnection::Recv(uint8_t* data, size_t len) {
  const size_t to_read = std::min(len, deliverable_);
  if (to_read == 0) {
    return 0;
  }
  const uint64_t window_before = AdvertisedWindowBytes();
  const size_t read = rx_ring_.Read(data, to_read);
  TAS_CHECK(read == to_read);
  deliverable_ -= read;
  // Window update: if the advertised window was effectively closed and
  // draining reopened it, tell the peer so it does not stall.
  if (window_before < config_.mss && AdvertisedWindowBytes() >= config_.mss &&
      (state_ == State::kEstablished || state_ == State::kFinWait1 ||
       state_ == State::kFinWait2)) {
    SendPureAck(false);
  }
  return read;
}

bool TcpConnection::FinOutstanding() const { return fin_sent_ && !fin_acked_; }

void TcpConnection::HandlePacket(const Packet& pkt) {
  if (state_ == State::kClosed) {
    return;
  }
  if (pkt.tcp.rst()) {
    HandleRst();
    return;
  }
  if (pkt.tcp.has_timestamps) {
    ts_echo_ = pkt.tcp.ts_val;
  }
  this_packet_ce_ = pkt.ip.ecn == Ecn::kCe;
  pending_ack_ = false;
  pending_dupack_sack_ = false;
  segments_sent_in_event_ = 0;

  switch (state_) {
    case State::kSynSent: {
      if (pkt.tcp.syn() && pkt.tcp.ack_flag() && pkt.tcp.ack == iss_ + 1) {
        irs_ = pkt.tcp.seq;
        if (pkt.tcp.has_mss) {
          config_.mss = std::min<uint64_t>(config_.mss, pkt.tcp.mss);
        }
        peer_wscale_ = pkt.tcp.has_wscale ? pkt.tcp.wscale : 0;
        peer_rwnd_ = pkt.tcp.window;  // Unscaled in SYN-ACK.
        state_ = State::kEstablished;
        retries_ = 0;
        CancelRtoTimer();
        SendPureAck(false);
        host_->OnConnected(this);
      }
      return;
    }
    case State::kSynRcvd: {
      if (pkt.tcp.ack_flag() && pkt.tcp.ack == iss_ + 1) {
        state_ = State::kEstablished;
        retries_ = 0;
        peer_rwnd_ = static_cast<uint64_t>(pkt.tcp.window) << peer_wscale_;
        CancelRtoTimer();
        host_->OnConnected(this);
        // Fall through to process any piggybacked payload.
        break;
      }
      if (pkt.tcp.syn()) {
        // Duplicate SYN: re-send the SYN-ACK.
        state_ = State::kClosed;
        AcceptSyn(pkt);
      }
      return;
    }
    case State::kTimeWait: {
      if (pkt.tcp.fin()) {
        SendPureAck(false);  // Retransmitted FIN: re-ACK.
      }
      return;
    }
    default:
      break;
  }
  if (state_ == State::kClosed) {
    return;
  }

  if (pkt.tcp.ack_flag()) {
    ProcessAck(pkt);
    if (state_ == State::kClosed) {
      return;
    }
  }

  if (!pkt.payload.empty()) {
    const uint64_t offset = UnwrapRxSeq(pkt.tcp.seq);
    ProcessData(pkt, offset);
  }

  if (pkt.tcp.fin()) {
    const uint64_t fin_offset = UnwrapRxSeq(pkt.tcp.seq) + pkt.payload.size();
    if (!rcv_fin_seen_) {
      rcv_fin_seen_ = true;
      rcv_fin_offset_ = fin_offset;
    }
    if (rcv_nxt_data_ >= rcv_fin_offset_) {
      // FIN is in order: consume it.
      pending_ack_ = true;
      switch (state_) {
        case State::kEstablished:
          state_ = State::kCloseWait;
          host_->OnRemoteClose(this);
          break;
        case State::kFinWait1:
          state_ = fin_acked_ ? State::kTimeWait : State::kClosing;
          if (state_ == State::kTimeWait) {
            EnterTimeWait();
          }
          host_->OnRemoteClose(this);
          break;
        case State::kFinWait2:
          state_ = State::kTimeWait;
          EnterTimeWait();
          host_->OnRemoteClose(this);
          break;
        default:
          break;
      }
    }
  }

  TryTransmit();
  if (pending_ack_ && segments_sent_in_event_ == 0 && state_ != State::kClosed) {
    // Dupacks (fast-retransmit signal), ECN echoes (DCTCP feedback), FIN
    // acknowledgement, and every-2-MSS acks go out immediately; otherwise
    // delay briefly hoping to piggyback on a response segment.
    const bool must_ack_now = pending_dupack_sack_ || this_packet_ce_ ||
                              pkt.tcp.fin() || unacked_rx_bytes_ >= 2 * config_.mss;
    if (must_ack_now) {
      SendPureAck(pending_dupack_sack_);
    } else {
      ArmDelayedAck();
    }
  }
  this_packet_ce_ = false;
  pending_ack_ = false;
}

void TcpConnection::ProcessAck(const Packet& pkt) {
  const uint64_t old_rwnd = peer_rwnd_;
  peer_rwnd_ = static_cast<uint64_t>(pkt.tcp.window) << peer_wscale_;

  uint64_t ack_offset = UnwrapAck(pkt.tcp.ack);
  bool acked_fin = false;
  if (fin_sent_ && ack_offset > snd_max_data_) {
    acked_fin = true;
    ack_offset = snd_max_data_;
  }
  if (ack_offset > snd_max_data_) {
    return;  // Acks data we never sent; ignore.
  }
  // An RTO may have rewound snd_nxt below data the receiver meanwhile acked.
  if (ack_offset > snd_nxt_data_) {
    snd_nxt_data_ = ack_offset;
  }

  // Sender-side SACK scoreboard.
  if (pkt.tcp.num_sack > 0) {
    for (uint8_t i = 0; i < pkt.tcp.num_sack; ++i) {
      const uint64_t start = UnwrapSeq(iss_ + 1, pkt.tcp.sack[i].start, snd_una_data_);
      const uint64_t end = UnwrapSeq(iss_ + 1, pkt.tcp.sack[i].end, snd_una_data_);
      if (end > start && start >= snd_una_data_ && end <= snd_nxt_data_) {
        sack_scoreboard_.Insert(snd_una_data_, start, end - start);
      }
    }
  }

  if (ack_offset > snd_una_data_) {
    const uint64_t freed = ack_offset - snd_una_data_;
    tx_ring_.Discard(freed);
    snd_una_data_ = ack_offset;
    dupack_count_ = 0;
    retries_ = 0;
    rtt_.ResetBackoff();

    if (pkt.tcp.has_timestamps && pkt.tcp.ts_ecr != 0) {
      const TimeNs sample =
          (static_cast<TimeNs>(TsNow(sim_) - pkt.tcp.ts_ecr)) * kNsPerUs;
      if (sample >= 0 && sample < Sec(10)) {
        rtt_.AddSample(sample);
      }
    }
    cc_->OnAck(freed, pkt.tcp.ece(), rtt_.srtt());
    if (pkt.tcp.ece()) {
      send_cwr_ = true;
    }
    if (in_recovery_ && snd_una_data_ >= recovery_point_) {
      in_recovery_ = false;
      sack_scoreboard_.Clear();
    } else if (in_recovery_) {
      // NewReno partial ACK: the next hole starts exactly at the new
      // cumulative ACK point; retransmit it immediately.
      retransmit_hole_next_ = snd_una_data_;
      RetransmitHole();
    }
    if (acked_fin) {
      fin_acked_ = true;
    }
    ArmRtoTimer();
    // Coalesce send-space wakeups (kernels do the same for EPOLLOUT): wake
    // the app once a useful chunk is writable, not once per acked MSS.
    sendspace_pending_ += freed;
    const uint64_t threshold =
        std::min<uint64_t>(4 * config_.mss, config_.tx_buffer_bytes / 4);
    if (sendspace_pending_ >= threshold || OutstandingBytes() == 0) {
      const uint64_t notify = sendspace_pending_;
      sendspace_pending_ = 0;
      host_->OnSendSpace(this, notify);
    }
  } else if (ack_offset == snd_una_data_ && (OutstandingBytes() > 0 || FinOutstanding()) &&
             pkt.payload.empty() && !pkt.tcp.syn() && !pkt.tcp.fin() &&
             peer_rwnd_ == old_rwnd) {
    // Duplicate ACK (RFC 5681: same ack, no payload, unchanged window —
    // a changed window makes it a window update, not a loss signal).
    ++dupack_count_;
    if (dupack_count_ == 3) {
      ++fast_retransmits_;
      in_recovery_ = true;
      recovery_point_ = snd_nxt_data_;
      retransmit_hole_next_ = snd_una_data_;
      cc_->OnFastRetransmit();
      RetransmitHole();
    } else if (dupack_count_ > 3 && in_recovery_) {
      RetransmitHole();
    }
  }

  if (acked_fin && !fin_acked_) {
    fin_acked_ = true;
  }

  // Close-sequence state transitions driven by our FIN being acked.
  if (fin_acked_) {
    switch (state_) {
      case State::kFinWait1:
        state_ = State::kFinWait2;
        CancelRtoTimer();
        break;
      case State::kClosing:
        state_ = State::kTimeWait;
        EnterTimeWait();
        break;
      case State::kLastAck:
        FinalizeClose();
        break;
      default:
        break;
    }
  }
}

void TcpConnection::ProcessData(const Packet& pkt, uint64_t payload_data_offset) {
  const uint64_t len = pkt.payload.size();
  const uint64_t end = payload_data_offset + len;
  pending_ack_ = true;
  unacked_rx_bytes_ += len;

  if (end <= rcv_nxt_data_) {
    return;  // Entirely duplicate; the ACK we owe covers it.
  }
  const uint64_t window_end = rx_ring_.tail() + rx_ring_.capacity();
  if (payload_data_offset >= window_end) {
    return;  // Entirely beyond our buffer; drop, ACK restates rcv_nxt.
  }

  // Clip the segment to [rcv_nxt, window_end).
  uint64_t start = std::max(payload_data_offset, rcv_nxt_data_);
  uint64_t clipped_end = std::min(end, window_end);
  const uint8_t* data = pkt.payload.data() + (start - payload_data_offset);
  const uint64_t clipped_len = clipped_end - start;

  if (start <= rcv_nxt_data_) {
    // In-order (possibly with already-buffered continuation).
    TAS_CHECK(rx_ring_.WriteAt(start, data, clipped_len));
    const auto result = reassembly_.Insert(rcv_nxt_data_, start, clipped_len);
    rcv_nxt_data_ += result.advanced;
    rx_ring_.AdvanceHead(rcv_nxt_data_);
    const size_t newly = static_cast<size_t>(rcv_nxt_data_ - rx_ring_.tail()) - deliverable_;
    deliverable_ += newly;
    if (newly > 0) {
      host_->OnDataAvailable(this, newly);
    }
  } else {
    // Out of order: keep it and answer with a SACK-carrying dupack.
    TAS_CHECK(rx_ring_.WriteAt(start, data, clipped_len));
    reassembly_.Insert(rcv_nxt_data_, start, clipped_len);
    pending_dupack_sack_ = true;
  }
}

void TcpConnection::RetransmitHole() {
  if (OutstandingBytes() == 0) {
    return;
  }
  uint64_t hole_start = std::max(snd_una_data_, retransmit_hole_next_);
  uint64_t hole_end = snd_nxt_data_;
  if (sack_scoreboard_.Empty() && hole_start > snd_una_data_) {
    // Without SACK there is no evidence of which later segments are missing:
    // blind retransmission wastes capacity (and a single-interval receiver
    // like TAS would discard it). Wait for a partial ACK instead.
    return;
  }
  for (const auto& [s, e] : sack_scoreboard_.Intervals()) {
    if (hole_start >= s && hole_start < e) {
      hole_start = e;  // Already SACKed; move past.
    } else if (s > hole_start) {
      hole_end = std::min(hole_end, s);
      break;
    }
  }
  if (hole_start >= snd_nxt_data_) {
    return;  // Everything outstanding is SACKed; wait for cumulative ACK.
  }
  const uint64_t len = std::min<uint64_t>(config_.mss, hole_end - hole_start);
  SendSegment(hole_start, len, /*is_retransmit=*/true);
  retransmit_hole_next_ = hole_start + len;
}

void TcpConnection::SendSegment(uint64_t data_offset, uint64_t len, bool is_retransmit) {
  TAS_CHECK(len > 0);
  uint8_t flags = TcpFlags::kAck | TcpFlags::kPsh;
  if (send_cwr_) {
    flags |= TcpFlags::kCwr;
    send_cwr_ = false;
  }
  if (this_packet_ce_ && pending_ack_) {
    flags |= TcpFlags::kEce;  // ACK piggybacked on data echoes the CE mark.
  }
  // Fill the payload in place: the pooled packet's buffer retains capacity,
  // so this resize allocates nothing in steady state.
  auto pkt = BuildPacket(flags, data_offset, {});
  pkt->payload.resize(len);
  const size_t got = tx_ring_.Peek(data_offset, pkt->payload.data(), len);
  TAS_CHECK(got == len) << "tx ring underrun at offset " << data_offset;
  pkt->ip.ecn = Ecn::kEct0;
  delayed_ack_timer_.Cancel();  // The segment carries the current ACK.
  unacked_rx_bytes_ = 0;
  host_->EmitPacket(this, std::move(pkt));
  ++segments_sent_in_event_;
  if (!is_retransmit) {
    snd_nxt_data_ = std::max(snd_nxt_data_, data_offset + len);
  }
  snd_max_data_ = std::max(snd_max_data_, data_offset + len);
  ArmRtoTimer();
}

void TcpConnection::ArmDelayedAck() {
  if (delayed_ack_timer_.armed()) {
    return;
  }
  delayed_ack_timer_.Schedule(sim_->Now() + kDelayedAck);
}

void TcpConnection::SendPureAck(bool dupack_with_sack) {
  delayed_ack_timer_.Cancel();
  unacked_rx_bytes_ = 0;
  uint8_t flags = TcpFlags::kAck;
  if (this_packet_ce_) {
    flags |= TcpFlags::kEce;  // Per-packet DCTCP-style echo.
  }
  auto pkt = BuildPacket(flags, snd_nxt_data_, {});
  if (dupack_with_sack) {
    const auto blocks = reassembly_.SackBlocks(3);
    pkt->tcp.num_sack = static_cast<uint8_t>(blocks.size());
    for (size_t i = 0; i < blocks.size(); ++i) {
      pkt->tcp.sack[i].start = irs_ + 1 + static_cast<uint32_t>(blocks[i].first);
      pkt->tcp.sack[i].end = irs_ + 1 + static_cast<uint32_t>(blocks[i].second);
    }
  }
  host_->EmitPacket(this, std::move(pkt));
}

void TcpConnection::TryTransmit() {
  if (state_ != State::kEstablished && state_ != State::kCloseWait &&
      state_ != State::kFinWait1 && state_ != State::kClosing && state_ != State::kLastAck) {
    return;
  }
  for (;;) {
    const uint64_t available = tx_ring_.head() - snd_nxt_data_;
    const uint64_t outstanding = OutstandingBytes();
    const uint64_t cwnd = cc_->cwnd();
    const uint64_t window = std::min<uint64_t>(cwnd, peer_rwnd_);
    if (available == 0 || outstanding >= window) {
      break;
    }
    const uint64_t len =
        std::min({available, static_cast<uint64_t>(config_.mss), window - outstanding});
    if (len == 0) {
      break;
    }
    SendSegment(snd_nxt_data_, len, /*is_retransmit=*/false);
  }

  // FIN once all queued data is out.
  if (fin_queued_ && !fin_sent_ && tx_ring_.head() == snd_nxt_data_) {
    fin_sent_ = true;
    uint8_t flags = TcpFlags::kFin | TcpFlags::kAck;
    auto fin = BuildPacket(flags, snd_nxt_data_, {});
    host_->EmitPacket(this, std::move(fin));
    ++segments_sent_in_event_;
    switch (state_) {
      case State::kEstablished:
        state_ = State::kFinWait1;
        break;
      case State::kCloseWait:
        state_ = State::kLastAck;
        break;
      default:
        break;
    }
    ArmRtoTimer();
  }
}

void TcpConnection::ArmRtoTimer() {
  const bool handshake = state_ == State::kSynSent || state_ == State::kSynRcvd;
  if (!handshake && OutstandingBytes() == 0 && !FinOutstanding()) {
    CancelRtoTimer();
    return;
  }
  rto_timer_.Schedule(sim_->Now() + rtt_.Rto());
}

void TcpConnection::CancelRtoTimer() { rto_timer_.Cancel(); }

void TcpConnection::OnRtoExpired() {
  ++retries_;
  switch (state_) {
    case State::kSynSent:
    case State::kSynRcvd:
      if (retries_ > kMaxSynRetries) {
        if (state_ == State::kSynSent) {
          state_ = State::kClosed;
          host_->OnConnectFailed(this);
        } else {
          FinalizeClose();
        }
        return;
      }
      rtt_.Backoff();
      SendSyn(/*retransmit=*/true);
      return;
    default:
      break;
  }

  if (retries_ > kMaxDataRetries) {
    Abort();
    return;
  }
  ++timeout_retransmits_;
  cc_->OnTimeout();
  rtt_.Backoff();
  in_recovery_ = false;
  dupack_count_ = 0;
  sack_scoreboard_.Clear();
  // Go-back-N: rewind and resend from the unacknowledged point.
  snd_nxt_data_ = snd_una_data_;
  const uint64_t available = tx_ring_.head() - snd_nxt_data_;
  if (available > 0) {
    SendSegment(snd_nxt_data_, std::min<uint64_t>(config_.mss, available),
                /*is_retransmit=*/false);
  } else if (FinOutstanding()) {
    auto fin = BuildPacket(TcpFlags::kFin | TcpFlags::kAck, snd_nxt_data_, {});
    host_->EmitPacket(this, std::move(fin));
  }
  ArmRtoTimer();
}

void TcpConnection::EnterTimeWait() {
  CancelRtoTimer();
  time_wait_timer_.Schedule(sim_->Now() + kTimeWait);
}

void TcpConnection::FinalizeClose() {
  if (state_ == State::kClosed) {
    return;
  }
  state_ = State::kClosed;
  CancelRtoTimer();
  time_wait_timer_.Cancel();
  if (!destroying_) {
    // Defer so the host can safely destroy the connection.
    sim_->After(0, [this] { host_->OnClosed(this); });
  }
}

void TcpConnection::HandleRst() {
  if (state_ == State::kSynSent) {
    state_ = State::kClosed;
    host_->OnConnectFailed(this);
    return;
  }
  FinalizeClose();
}

}  // namespace tas
