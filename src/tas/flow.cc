#include "src/tas/flow.h"

#include <algorithm>
#include <cctype>

namespace tas {

const char* ConnStateName(ConnState state) {
  switch (state) {
    case ConnState::kSynSent:
      return "SYN_SENT";
    case ConnState::kSynRcvd:
      return "SYN_RCVD";
    case ConnState::kEstablished:
      return "ESTABLISHED";
    case ConnState::kFinWait1:
      return "FIN_WAIT_1";
    case ConnState::kFinWait2:
      return "FIN_WAIT_2";
    case ConnState::kCloseWait:
      return "CLOSE_WAIT";
    case ConnState::kLastAck:
      return "LAST_ACK";
    case ConnState::kTimeWait:
      return "TIME_WAIT";
    case ConnState::kFreed:
      return "FREED";
  }
  return "?";
}

std::string ConnStateKey(ConnState state) {
  std::string key = ConnStateName(state);
  std::transform(key.begin(), key.end(), key.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return key;
}

void FlowCold::Reset() {
  rx_mem.Release();
  tx_mem.Release();
  cc.reset();
  last_seq_sampled = 0;
  stalled_intervals = 0;
  fin_received = false;
  fin_acked = false;
  app_closed = false;
  fin_event_sent = false;
  closed_event_sent = false;
  in_pending = false;
  pacing_timer.Cancel();
  pacing_timer = EventHandle{};
  ctrl_retries = 0;
  last_ctrl_send = 0;
  timewait_start = 0;
  established_at = 0;
}

FlowCold& Flow::EnsureCold() {
  owned_cold_ = std::make_unique<FlowCold>();
  cold_ptr_ = owned_cold_.get();
  return *cold_ptr_;
}

void Flow::Reset() {
  fs = FlowState{};
  mss = 1448;
  peer_wscale = 0;
  ts_echo = 0;
  rate_bps = 10e6;
  tx_tokens = 0;
  tokens_updated = 0;
  next_tx_time = 0;
  tx_pending = false;
  in_dirty = false;
  cstate = ConnState::kSynSent;
  if (cold_ptr_ != nullptr) {
    cold_ptr_->Reset();
  }
}

uint32_t Flow::NextSegmentLen() const {
  const uint64_t peer_window = PeerWindowBytes(fs);
  const uint64_t allow = peer_window > fs.tx_sent ? peer_window - fs.tx_sent : 0;
  return static_cast<uint32_t>(std::min<uint64_t>({TxAvailable(), mss, allow}));
}

void Flow::CopyIntoRx(uint32_t wire_pos, const uint8_t* src, uint32_t len) {
  RingStorage<uint32_t>& mem = cold().rx_mem;
  mem.Write(fs.rx_tail, wire_pos, src, len, fs.rx_size);
  fs.rx_base = mem.data();
}

void Flow::AppendFromTx(uint32_t wire_pos, uint32_t len, std::vector<uint8_t>* out) const {
  cold().tx_mem.AppendTo(wire_pos, len, out);
}

uint32_t Flow::AppWriteTx(const uint8_t* src, uint32_t len) {
  const uint32_t free_space = fs.tx_size - TxQueued();
  const uint32_t n = std::min(len, free_space);
  if (n == 0) {
    return 0;
  }
  RingStorage<uint32_t>& mem = cold().tx_mem;
  mem.Write(fs.tx_tail, fs.tx_head, src, n, fs.tx_size);
  fs.tx_base = mem.data();
  fs.tx_head += n;
  return n;
}

uint32_t Flow::AppReadRx(uint8_t* dst, uint32_t len) {
  const uint32_t n = std::min(len, RxUsed());
  if (n == 0) {
    return 0;
  }
  cold().rx_mem.Read(fs.rx_tail, dst, n);
  fs.rx_tail += n;
  if (RxUsed() == 0 && cold().fin_received) {
    ReleaseFinishedRings();
  }
  return n;
}

void Flow::ReleaseFinishedRings() {
  FlowCold& c = cold();
  if (c.fin_acked) {
    c.tx_mem.Release();
    fs.tx_base = nullptr;
  }
  if (c.fin_received && RxUsed() == 0) {
    c.rx_mem.Release();
    fs.rx_base = nullptr;
  }
}

}  // namespace tas
