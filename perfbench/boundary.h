// Socket-boundary decorators: a forwarding Stack and AppHandler pair that
// wraps every call an application makes into its transport stack, and every
// callback the stack makes into the application.
//
// Counting (connect failures, open active connections, bytes accepted by
// Send, data callbacks per connection) is always on, because the
// correctness checks need it. Wall-clock
// spans are taken only when the shared SpanClock is enabled (the traced
// run). A span's self time is its duration minus the spans nested inside
// it, so an application callback that calls Send is charged only for its own
// code, and the Send is charged to the stack layer.
#ifndef PERFBENCH_BOUNDARY_H_
#define PERFBENCH_BOUNDARY_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/baseline/stack_iface.h"
#include "src/sim/simulator.h"

namespace perfbench {

// Which side of the socket boundary a span belongs to.
enum class Boundary : int {
  kLibtas = 0,  // Calls into a TAS host's libTAS stack.
  kEngine = 1,  // Calls into a baseline (EngineStack) host's stack.
  kApp = 2,     // Stack callbacks into the application.
};
inline constexpr int kNumBoundaries = 3;

class SpanClock {
 public:
  // Clears every accumulator; spans are recorded only while enabled.
  void Reset(bool enabled) {
    enabled_ = enabled;
    open_.clear();
    self_ns_.fill(0);
    covered_ns_ = 0;
  }

  void Enter(Boundary b) {
    if (enabled_) {
      open_.push_back(Frame{NowNs(), 0, b});
    }
  }

  void Exit() {
    if (!enabled_) {
      return;
    }
    const Frame f = open_.back();
    open_.pop_back();
    const int64_t duration = NowNs() - f.start;
    self_ns_[static_cast<size_t>(f.boundary)] += duration - f.child_ns;
    if (open_.empty()) {
      covered_ns_ += duration;
    } else {
      open_.back().child_ns += duration;
    }
  }

  int64_t self_ns(Boundary b) const { return self_ns_[static_cast<size_t>(b)]; }
  // Wall time inside outermost spans: the part of a RunUntil the boundary
  // spans cover. The rest is below the socket (simulator, NIC, fast and slow
  // path, links, switches).
  int64_t covered_ns() const { return covered_ns_; }

 private:
  struct Frame {
    int64_t start;
    int64_t child_ns;
    Boundary boundary;
  };

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled_ = false;
  std::vector<Frame> open_;
  std::array<int64_t, kNumBoundaries> self_ns_{};
  int64_t covered_ns_ = 0;
};

class Span {
 public:
  Span(SpanClock* clock, Boundary b) : clock_(clock) { clock_->Enter(b); }
  ~Span() { clock_->Exit(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanClock* clock_;
};

struct BoundaryCounts {
  uint64_t connected = 0;         // OnConnected(true).
  uint64_t connect_failures = 0;  // OnConnected(false).
  uint64_t send_bytes = 0;        // Bytes the stack accepted from Send.
  uint64_t short_sends = 0;       // Sends that accepted fewer bytes than offered.
};

// Forwards every Stack call to `inner`; SetHandler interposes a forwarding
// handler so callbacks are spanned and counted too. Splice forwards to the
// inner stack, so TAS keeps its in-stack splice path.
class TracedStack : public tas::Stack {
 public:
  TracedStack(tas::Stack* inner, Boundary layer, SpanClock* clock, tas::Simulator* sim)
      : inner_(inner), layer_(layer), clock_(clock), sim_(sim), handler_(this) {}
  TracedStack(const TracedStack&) = delete;
  TracedStack& operator=(const TracedStack&) = delete;

  const BoundaryCounts& counts() const { return counts_; }
  // OnData callbacks per connection: which connections made progress.
  const std::unordered_map<tas::ConnId, uint64_t>& data_callbacks() const {
    return data_callbacks_;
  }
  // Active opens that have neither failed nor been closed by the
  // application, keyed by connection, with their simulated Connect time.
  const std::unordered_map<tas::ConnId, tas::TimeNs>& open_active() const {
    return open_active_;
  }

  void SetHandler(tas::AppHandler* handler) override {
    handler_.inner = handler;
    inner_->SetHandler(&handler_);
  }
  void Listen(uint16_t port) override {
    Span s(clock_, layer_);
    inner_->Listen(port);
  }
  tas::ConnId Connect(tas::IpAddr dst_ip, uint16_t dst_port) override {
    tas::ConnId conn;
    {
      Span s(clock_, layer_);
      conn = inner_->Connect(dst_ip, dst_port);
    }
    open_active_.emplace(conn, sim_->Now());
    return conn;
  }
  size_t Send(tas::ConnId conn, const uint8_t* data, size_t len) override {
    size_t n;
    {
      Span s(clock_, layer_);
      n = inner_->Send(conn, data, len);
    }
    counts_.send_bytes += n;
    counts_.short_sends += n < len ? 1 : 0;
    return n;
  }
  size_t Recv(tas::ConnId conn, uint8_t* data, size_t len) override {
    Span s(clock_, layer_);
    return inner_->Recv(conn, data, len);
  }
  size_t RecvAvailable(tas::ConnId conn) const override {
    Span s(clock_, layer_);
    return inner_->RecvAvailable(conn);
  }
  size_t SendSpace(tas::ConnId conn) const override {
    Span s(clock_, layer_);
    return inner_->SendSpace(conn);
  }
  size_t Splice(tas::ConnId from, tas::ConnId to, size_t len) override {
    Span s(clock_, layer_);
    return inner_->Splice(from, to, len);
  }
  void Close(tas::ConnId conn) override {
    open_active_.erase(conn);
    Span s(clock_, layer_);
    inner_->Close(conn);
  }
  void ChargeApp(tas::ConnId conn, uint64_t cycles) override {
    Span s(clock_, layer_);
    inner_->ChargeApp(conn, cycles);
  }
  tas::IpAddr local_ip() const override { return inner_->local_ip(); }

 private:
  struct Handler : public tas::AppHandler {
    explicit Handler(TracedStack* stack) : owner(stack) {}

    void OnConnected(tas::ConnId conn, bool success) override {
      if (success) {
        ++owner->counts_.connected;
      } else {
        ++owner->counts_.connect_failures;
        owner->open_active_.erase(conn);
      }
      Span s(owner->clock_, Boundary::kApp);
      inner->OnConnected(conn, success);
    }
    void OnAccepted(tas::ConnId conn, uint16_t local_port) override {
      Span s(owner->clock_, Boundary::kApp);
      inner->OnAccepted(conn, local_port);
    }
    void OnData(tas::ConnId conn, size_t bytes) override {
      ++owner->data_callbacks_[conn];
      Span s(owner->clock_, Boundary::kApp);
      inner->OnData(conn, bytes);
    }
    void OnSendSpace(tas::ConnId conn, size_t bytes) override {
      Span s(owner->clock_, Boundary::kApp);
      inner->OnSendSpace(conn, bytes);
    }
    void OnRemoteClosed(tas::ConnId conn) override {
      Span s(owner->clock_, Boundary::kApp);
      inner->OnRemoteClosed(conn);
    }
    void OnClosed(tas::ConnId conn) override {
      Span s(owner->clock_, Boundary::kApp);
      inner->OnClosed(conn);
    }

    TracedStack* owner;
    tas::AppHandler* inner = nullptr;
  };

  tas::Stack* inner_;
  Boundary layer_;
  SpanClock* clock_;
  tas::Simulator* sim_;
  Handler handler_;
  BoundaryCounts counts_;
  std::unordered_map<tas::ConnId, tas::TimeNs> open_active_;
  std::unordered_map<tas::ConnId, uint64_t> data_callbacks_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BOUNDARY_H_
