#include "src/net/packet_pool.h"

#include <cstdlib>

#include "src/util/logging.h"

namespace tas {
namespace {

bool& PoolingFlag() {
  static bool enabled = std::getenv("TAS_NO_POOL") == nullptr;
  return enabled;
}

// Clears a recycled packet back to default state while keeping the payload
// buffer's capacity (the whole point of pooling: the next tenant's resize
// is a length update, not an allocation).
void ResetPacket(Packet* pkt) {
  std::vector<uint8_t> payload = std::move(pkt->payload);
  payload.clear();
  *pkt = Packet{};
  pkt->payload = std::move(payload);
}

}  // namespace

void PacketDeleter::operator()(Packet* pkt) const noexcept {
  if (pool_ != nullptr) {
    pool_->Release(pkt);
  } else {
    delete pkt;
  }
}

PacketPool::~PacketPool() {
  // Destroying a pool with packets still out would leave their deleters
  // dangling; every owner (an experiment's context, a test) drains first.
  TAS_CHECK(outstanding() == 0)
      << "PacketPool destroyed with " << outstanding() << " packets outstanding";
  for (Packet* pkt : free_) {
    delete pkt;
  }
}

PacketPtr PacketPool::Acquire() {
  if (!PoolingEnabled()) {
    ++unpooled_;
    return PacketPtr(new Packet(), PacketDeleter(nullptr));
  }
  Packet* pkt;
  if (free_.empty()) {
    pkt = new Packet();
    ++allocated_;
  } else {
    pkt = free_.back();
    free_.pop_back();
    ++reused_;
    ResetPacket(pkt);
  }
  return PacketPtr(pkt, PacketDeleter(this));
}

PacketPtr PacketPool::Clone(const Packet& src) {
  PacketPtr dst = Acquire();
  // Copy-assignment reuses the retained payload capacity (vector::operator=
  // copies into the existing buffer when it fits).
  *dst = src;
  // A clone is a new journey: it must not stamp into the original's latency
  // record (a duplicate finishing first would retire it out from under the
  // real packet).
  dst->lat_id = 0;
  return dst;
}

void PacketPool::Release(Packet* pkt) noexcept {
  ++released_;
  if (free_.size() >= max_free_) {
    delete pkt;
    return;
  }
  free_.push_back(pkt);
}

PacketPoolStats PacketPool::stats() const {
  PacketPoolStats s;
  s.allocated = allocated_;
  s.reused = reused_;
  s.released = released_;
  s.unpooled = unpooled_;
  s.free_size = free_.size();
  s.outstanding = outstanding();
  return s;
}

void PacketPool::RegisterMetrics(MetricRegistry* registry, const std::string& prefix) const {
  registry->AddCounter(prefix + ".allocated", &allocated_);
  registry->AddCounter(prefix + ".reused", &reused_);
  registry->AddCounter(prefix + ".released", &released_);
  registry->AddCounter(prefix + ".unpooled", &unpooled_);
  registry->AddGauge(prefix + ".free",
                     [this] { return static_cast<double>(free_.size()); });
  registry->AddGauge(prefix + ".outstanding",
                     [this] { return static_cast<double>(outstanding()); });
}

bool PacketPool::PoolingEnabled() { return PoolingFlag(); }

void PacketPool::SetPoolingEnabled(bool enabled) { PoolingFlag() = enabled; }

}  // namespace tas
