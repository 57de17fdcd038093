// Shared-memory context queues connecting libTAS, the fast path, and the
// slow path (paper §3, Figures 1-3).
//
// A context is the unit an application thread polls: it owns one RX queue
// (fast path -> app: one data entry per segment, and connection notifications)
// and one TX queue (app -> fast path: send commands). Connection control
// commands travel on a separate slow-path queue pair. Both queues are bounded
// Fifos (src/util/fifo.h): the logical capacity is fixed at construction and
// a push beyond it is refused, while the backing storage grows only to the
// deepest occupancy the context reaches. The simulator is single-threaded, so
// the queues need no producer/consumer synchronisation.
#ifndef SRC_SHM_CONTEXT_QUEUE_H_
#define SRC_SHM_CONTEXT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/util/fifo.h"

namespace tas {

// Fast path -> application notifications (the "context RX queue").
enum class AppEventType : uint8_t {
  // The data path's one entry per segment (TAS's connection update): `bytes`
  // of new in-order payload are available in the flow's RX buffer and
  // `acked` bytes of previously sent payload were acknowledged, so their TX
  // buffer space was reclaimed (paper: "transmit payload buffer space
  // reclamation"). Either count may be zero, not both.
  kData,
  // Outgoing connection is established (slow path completed the handshake).
  kConnOpened,
  // Outgoing connection attempt failed.
  kConnOpenFailed,
  // The peer's FIN was consumed: no more data will arrive, but the local
  // direction stays open (half-close; libTAS surfaces OnRemoteClosed).
  kConnFin,
  // The connection is fully terminated (both directions down or reset); the
  // flow id is about to be recycled.
  kConnClosed,
  // An incoming connection landed on a listener (slow path notification).
  kAcceptable,
};

struct AppEvent {
  AppEventType type = AppEventType::kData;
  // Application-defined flow identifier (the `opaque` field of Table 3);
  // for kAcceptable it carries the listener's opaque value.
  uint64_t opaque = 0;
  // kData: received bytes. kAcceptable, kConnOpened, kConnOpenFailed: the
  // flow id.
  uint32_t bytes = 0;
  // kData: acknowledged send bytes.
  uint32_t acked = 0;
};
static_assert(sizeof(AppEvent) == 24, "the ack count rides in the entry's padding");

// Application -> fast path commands (the "context TX queue").
enum class TxCommandType : uint8_t {
  // `bytes` of new payload were appended to the flow's TX buffer.
  kSend,
  // The app drained its RX buffer after the advertised window had collapsed;
  // the fast path should emit a window-update ACK.
  kWindowUpdate,
};

struct TxCommand {
  TxCommandType type = TxCommandType::kSend;
  uint64_t flow_id = 0;
  uint32_t bytes = 0;
};

// One application context: the queue pair an app thread polls, plus wakeup
// hooks (eventfd-like) in both directions.
class AppContext {
 public:
  // Each queue holds bit_ceil(queue_entries + 1) - 1 entries (8,191 at the
  // default): the usable size of a power-of-two shared-memory ring that keeps
  // one slot free to tell full from empty.
  explicit AppContext(size_t queue_entries = 4096);

  Fifo<AppEvent>& rx() { return rx_; }
  Fifo<TxCommand>& tx() { return tx_; }

  // Invoked when an event is pushed to an empty RX queue (wakes the app).
  void set_app_notify(std::function<void()> fn) { app_notify_ = std::move(fn); }
  // Invoked when a command is pushed to an empty TX queue (wakes a fast
  // path thread; paper: "wakes a waiting fast path thread").
  void set_fastpath_notify(std::function<void()> fn) { fastpath_notify_ = std::move(fn); }

  // Pushes an event; returns false if the queue is full (the fast path then
  // defers notification until the app drains, paper §3.1).
  bool PushEvent(const AppEvent& event);
  bool PushCommand(const TxCommand& command);

  // Doorbell coalescing (libTAS queue-doorbell behavior): between
  // BeginNotifyDefer and EndNotifyDefer, app wakeups requested by PushEvent
  // are latched instead of fired; EndNotifyDefer rings at most one doorbell
  // for the whole window. The fast path brackets each batch with these.
  void BeginNotifyDefer() { ++defer_depth_; }
  void EndNotifyDefer();

  uint64_t dropped_events() const { return dropped_events_; }
  // Doorbells suppressed by coalescing (notify requests beyond the first in
  // a defer window).
  uint64_t doorbells_coalesced() const { return doorbells_coalesced_; }
  // High-water occupancy of each queue, observed at push (latency anatomy).
  size_t rx_queue_hw() const { return rx_hw_; }
  size_t tx_queue_hw() const { return tx_hw_; }

 private:
  Fifo<AppEvent> rx_;
  Fifo<TxCommand> tx_;
  std::function<void()> app_notify_;
  std::function<void()> fastpath_notify_;
  size_t rx_hw_ = 0;
  size_t tx_hw_ = 0;
  uint64_t dropped_events_ = 0;
  int defer_depth_ = 0;
  bool pending_notify_ = false;
  uint64_t doorbells_coalesced_ = 0;
};

}  // namespace tas

#endif  // SRC_SHM_CONTEXT_QUEUE_H_
