// Per-flow event tracer: a bounded ring of typed records stamped with
// simulator time and flow id. The fast and slow paths emit one record per
// interesting protocol event (handshake transitions, data/ACK tx+rx,
// dupacks, retransmits, out-of-order handling, congestion-control updates);
// the records live in a RecordRing (record_ring.h), which overwrites its
// oldest records when full, so a long run keeps the most recent window at
// fixed memory cost. The ring is allocated on the first stored record: a
// host whose tracing stays off holds none.
//
// Tracing is off by default. It can be enabled for every flow (global) or
// per flow id; the disabled-path cost is one inline branch per call site.
#ifndef SRC_TRACE_FLOW_TRACER_H_
#define SRC_TRACE_FLOW_TRACER_H_

#include <array>
#include <cstdint>
#include <ostream>
#include <unordered_set>
#include <vector>

#include "src/trace/record_ring.h"
#include "src/util/time.h"

namespace tas {

class FlightRecorder;

inline constexpr int kNumFlowEventTypes = 20;

enum class FlowEventType : uint8_t {
  kConnState,           // a = ConnState enum value after the transition.
  kSynTx,               // a = 1 if SYN-ACK, 0 if SYN.
  kSynRx,               // a = peer ISN.
  kFinTx,               // a = wire seq of the FIN.
  kFinRx,               // a = wire seq of the FIN.
  kRstRx,
  kDataTx,              // a = wire seq, b = len, c = tx_sent after send.
  kDataRx,              // a = wire seq, b = len, c = bytes delivered (0 = dup).
  kAckTx,               // a = ack, b = 1 if ECN echo set.
  kAckRx,               // a = ack, b = newly acked bytes, c = 1 if ECE.
  kDupAck,              // a = duplicate-ack count.
  kFastRetransmit,      // a = rewind-to seq (tx_tail).
  kTimeoutRetransmit,   // a = rewind-to seq, b = stalled interval count.
  kHandshakeRetransmit, // a = 1 SYN, 2 SYN-ACK, 3 FIN.
  kOooAccept,           // a = wire seq, b = len, c = interval length after.
  kOooDrop,             // a = wire seq, b = len.
  kRxBufferDrop,        // a = wire seq, b = len.
  kCcUpdate,            // a = rate [bps], b = ECN ppm, c = rtt us.
  // Application-level proxy events (src/proxy), recorded with the client
  // connection's flow id.
  kProxyRequest,        // a = object id, b = request id, c = 1 if cache hit.
  kProxyResponse,       // a = request id, b = body bytes, c = path (0 hit, 1 store, 2 splice).
};

// Stable lower_snake name used in JSONL/Perfetto output.
const char* FlowEventTypeName(FlowEventType type);
// Names for the generic a/b/c payload slots of this event type.
void FlowEventArgNames(FlowEventType type, const char** a, const char** b, const char** c);

struct FlowEvent {
  TimeNs t = 0;
  uint64_t flow = 0;
  FlowEventType type = FlowEventType::kConnState;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
};

class FlowTracer {
 public:
  // `capacity` is rounded up to a power of two.
  explicit FlowTracer(size_t capacity = 1u << 16) : ring_(capacity) {}

  // Global switch: record events for every flow.
  void SetGlobal(bool enabled) { global_ = enabled; }
  bool global() const { return global_; }
  // Per-flow opt-in (effective when the global switch is off).
  void EnableFlow(uint64_t flow) { per_flow_.insert(flow); }
  void DisableFlow(uint64_t flow) { per_flow_.erase(flow); }

  // Forward every event to `recorder` (flight_recorder.h; null detaches) in
  // addition to (and independent of) this tracer's own ring. The recorder
  // tap sees all flows even when neither global nor per-flow tracing is on.
  void SetRecorderTap(FlightRecorder* recorder) { recorder_ = recorder; }

  // True if any Record call could store something — call sites may use this
  // to skip argument marshalling, but Record itself is safe to call always.
  bool active() const { return global_ || recorder_ != nullptr || !per_flow_.empty(); }
  bool enabled(uint64_t flow) const {
    return global_ || (!per_flow_.empty() && per_flow_.count(flow) != 0);
  }

  void Record(TimeNs t, uint64_t flow, FlowEventType type, uint64_t a = 0, uint64_t b = 0,
              uint64_t c = 0) {
    if (!global_ && recorder_ == nullptr && per_flow_.empty()) {
      return;
    }
    RecordSlow(t, flow, type, a, b, c);
  }

  // Records currently retained, oldest first (ring order).
  std::vector<FlowEvent> Events() const { return ring_.Snapshot(); }
  size_t size() const { return ring_.size(); }
  size_t capacity() const { return ring_.capacity(); }
  uint64_t recorded() const { return ring_.last_id(); }
  // Records overwritten because the ring wrapped.
  uint64_t overwritten() const { return ring_.evicted(); }
  // Overwrites attributed to the event type that was LOST (the overwritten
  // record's type, not the incoming one) — tells ring-sizing which stream
  // actually overflowed.
  uint64_t overwritten_by_type(FlowEventType type) const {
    return overwritten_by_type_[static_cast<size_t>(type)];
  }
  void Clear();

  // One JSON object per line, typed arg names:
  //   {"t":1234,"flow":0,"type":"data_tx","seq":17,"len":1448,"tx_sent":2896}
  void WriteJsonl(std::ostream& os) const;

 private:
  void RecordSlow(TimeNs t, uint64_t flow, FlowEventType type, uint64_t a, uint64_t b,
                  uint64_t c);

  bool global_ = false;
  FlightRecorder* recorder_ = nullptr;
  std::unordered_set<uint64_t> per_flow_;
  RecordRing<FlowEvent> ring_;
  std::array<uint64_t, kNumFlowEventTypes> overwritten_by_type_ = {};
};

}  // namespace tas

#endif  // SRC_TRACE_FLOW_TRACER_H_
