// PacketPool: free-list recycling for simulated packets.
//
// TAS's data path avoids per-packet memory management (the paper's fast path
// touches only preallocated flow state and buffers); the simulator mirrors
// that discipline. Every simulated packet-hop used to cost a heap-allocated
// Packet plus a payload vector; the pool hands out cleared packets whose
// payload buffers retain their capacity, so steady-state traffic allocates
// nothing. PacketPtr's deleter routes destruction back here from anywhere —
// including event closures destroyed at simulator teardown, which is what
// keeps LeakSanitizer clean with packets in flight.
//
// Set TAS_NO_POOL=1 (or PacketPool::SetPoolingEnabled(false)) to fall back
// to plain new/delete; same-seed runs are byte-identical either way (the
// pool only changes where packets live, never what the simulation does).
#ifndef SRC_NET_PACKET_POOL_H_
#define SRC_NET_PACKET_POOL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/net/packet.h"
#include "src/trace/metric_registry.h"

namespace tas {

struct PacketPoolStats {
  uint64_t allocated = 0;  // Fresh heap packets created through the pool.
  uint64_t reused = 0;     // Acquires served from the free list.
  uint64_t released = 0;   // Packets handed back (kept or, past cap, freed).
  uint64_t unpooled = 0;   // Acquires that bypassed pooling (TAS_NO_POOL).
  size_t free_size = 0;    // Free-list occupancy right now.
  size_t outstanding = 0;  // Pool-owned packets currently live.
};

class PacketPool {
 public:
  // Free-list cap: beyond this, returned packets are freed for real. High
  // enough that no experiment in bench/ ever trims in steady state.
  static constexpr size_t kDefaultMaxFree = 1 << 16;

  explicit PacketPool(size_t max_free = kDefaultMaxFree) : max_free_(max_free) {}
  ~PacketPool();
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  // Returns a packet with default-initialized headers and an empty payload
  // whose buffer keeps its previous capacity. Falls back to plain new (null
  // pool deleter) when pooling is disabled.
  PacketPtr Acquire();

  // Pooled copy of `src` (headers, payload bytes, simulation metadata).
  PacketPtr Clone(const Packet& src);

  // Deleter hook; not for direct use.
  void Release(Packet* pkt) noexcept;

  PacketPoolStats stats() const;
  size_t free_size() const { return free_.size(); }
  size_t outstanding() const { return allocated_ + reused_ - released_; }

  // Registers pool counters/gauges under "<prefix>." (DESIGN.md §7 naming).
  void RegisterMetrics(MetricRegistry* registry, const std::string& prefix) const;

  // Escape hatch (TAS_NO_POOL=1 env or runtime toggle): future Acquires
  // bypass the free list. Outstanding pooled packets are unaffected.
  static bool PoolingEnabled();
  static void SetPoolingEnabled(bool enabled);

 private:
  std::vector<Packet*> free_;
  size_t max_free_;
  uint64_t allocated_ = 0;
  uint64_t reused_ = 0;
  uint64_t released_ = 0;
  uint64_t unpooled_ = 0;
};

}  // namespace tas

#endif  // SRC_NET_PACKET_POOL_H_
