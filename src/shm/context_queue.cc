#include "src/shm/context_queue.h"

#include <algorithm>
#include <bit>

namespace tas {
namespace {

size_t QueueCapacity(size_t queue_entries) {
  return std::bit_ceil(std::max<size_t>(queue_entries + 1, 2)) - 1;
}

}  // namespace

AppContext::AppContext(size_t queue_entries)
    : rx_(QueueCapacity(queue_entries)), tx_(QueueCapacity(queue_entries)) {}

bool AppContext::PushEvent(const AppEvent& event) {
  if (rx_.full()) {
    ++dropped_events_;
    return false;
  }
  const bool was_empty = rx_.empty();
  rx_.push_back(event);
  rx_hw_ = std::max(rx_hw_, rx_.size());
  if (defer_depth_ > 0) {
    // Every push after the first in a defer window would have rung its own
    // doorbell in the synchronous-drain world (the app empties the queue on
    // each wakeup); count those as coalesced.
    if (pending_notify_) {
      ++doorbells_coalesced_;
    } else if (was_empty) {
      pending_notify_ = true;
    }
  } else if (was_empty && app_notify_) {
    app_notify_();
  }
  return true;
}

void AppContext::EndNotifyDefer() {
  if (--defer_depth_ > 0) {
    return;
  }
  if (pending_notify_) {
    pending_notify_ = false;
    if (app_notify_) {
      app_notify_();
    }
  }
}

bool AppContext::PushCommand(const TxCommand& command) {
  if (tx_.full()) {
    return false;
  }
  const bool was_empty = tx_.empty();
  tx_.push_back(command);
  tx_hw_ = std::max(tx_hw_, tx_.size());
  if (was_empty && fastpath_notify_) {
    fastpath_notify_();
  }
  return true;
}

}  // namespace tas
