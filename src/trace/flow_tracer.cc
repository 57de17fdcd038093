#include "src/trace/flow_tracer.h"

#include "src/trace/flight_recorder.h"
#include "src/trace/metric_registry.h"
#include "src/util/logging.h"

namespace tas {
namespace {

struct TypeInfo {
  const char* name;
  const char* a;
  const char* b;
  const char* c;
};

const TypeInfo& InfoFor(FlowEventType type) {
  static const TypeInfo kInfo[] = {
      {"conn_state", "state", "", ""},
      {"syn_tx", "is_synack", "", ""},
      {"syn_rx", "peer_isn", "", ""},
      {"fin_tx", "seq", "", ""},
      {"fin_rx", "seq", "", ""},
      {"rst_rx", "", "", ""},
      {"data_tx", "seq", "len", "tx_sent"},
      {"data_rx", "seq", "len", "delivered"},
      {"ack_tx", "ack", "ecn_echo", ""},
      {"ack_rx", "ack", "acked", "ece"},
      {"dup_ack", "count", "", ""},
      {"fast_retransmit", "rewind_seq", "", ""},
      {"timeout_retransmit", "rewind_seq", "stalled_intervals", ""},
      {"handshake_retransmit", "kind", "", ""},
      {"ooo_accept", "seq", "len", "interval_len"},
      {"ooo_drop", "seq", "len", ""},
      {"rx_buffer_drop", "seq", "len", ""},
      {"cc_update", "rate_or_cwnd", "ecn_ppm", "rtt_us"},
      {"proxy_request", "object_id", "request_id", "hit"},
      {"proxy_response", "request_id", "body_len", "path"},
  };
  const size_t index = static_cast<size_t>(type);
  TAS_CHECK(index < sizeof(kInfo) / sizeof(kInfo[0]));
  return kInfo[index];
}

}  // namespace

const char* FlowEventTypeName(FlowEventType type) { return InfoFor(type).name; }

void FlowEventArgNames(FlowEventType type, const char** a, const char** b, const char** c) {
  const TypeInfo& info = InfoFor(type);
  *a = info.a;
  *b = info.b;
  *c = info.c;
}

void FlowTracer::RecordSlow(TimeNs t, uint64_t flow, FlowEventType type, uint64_t a,
                            uint64_t b, uint64_t c) {
  if (recorder_ != nullptr) {
    recorder_->RecordFlowEvent(FlowEvent{t, flow, type, a, b, c});
  }
  if (!enabled(flow)) {
    return;
  }
  // A full ring evicts the oldest record: charge ITS type.
  ring_.Append([this](const FlowEvent& lost) {
    ++overwritten_by_type_[static_cast<size_t>(lost.type)];
  }) = FlowEvent{t, flow, type, a, b, c};
}

void FlowTracer::Clear() {
  ring_.Clear();
  overwritten_by_type_.fill(0);
}

void FlowTracer::WriteJsonl(std::ostream& os) const {
  ring_.ForEach([&os](const FlowEvent& e) {
    const TypeInfo& info = InfoFor(e.type);
    os << "{\"t\":" << e.t << ",\"flow\":" << e.flow << ",\"type\":\"" << info.name << '"';
    if (info.a[0] != '\0') {
      os << ",\"" << info.a << "\":" << e.a;
    }
    if (info.b[0] != '\0') {
      os << ",\"" << info.b << "\":" << e.b;
    }
    if (info.c[0] != '\0') {
      os << ",\"" << info.c << "\":" << e.c;
    }
    os << "}\n";
  });
}

}  // namespace tas
