#include "src/util/port_table.h"

#include "src/util/logging.h"

namespace tas {

void PortTable::Acquire(uint16_t port) {
  std::unique_ptr<uint32_t[]>& chunk = chunks_[port >> kChunkBits];
  if (chunk == nullptr) {
    chunk = std::make_unique<uint32_t[]>(size_t{1} << kChunkBits);  // Zeroed.
  }
  ++chunk[port & kChunkMask];
}

void PortTable::Release(uint16_t port) {
  uint32_t* chunk = chunks_[port >> kChunkBits].get();
  TAS_CHECK(chunk != nullptr && chunk[port & kChunkMask] > 0) << "port " << port;
  --chunk[port & kChunkMask];
}

uint16_t PortTable::AllocateEphemeral() {
  for (int attempts = 0; attempts < 45000; ++attempts) {
    const uint16_t port = next_ephemeral_;
    next_ephemeral_ = next_ephemeral_ >= kEphemeralLast ? kEphemeralFirst : next_ephemeral_ + 1;
    if (count(port) == 0) {
      return port;
    }
  }
  TAS_LOG(FATAL) << "ephemeral ports exhausted";
  return 0;
}

size_t PortTable::chunks_in_use() const {
  size_t n = 0;
  for (const auto& chunk : chunks_) {
    n += chunk != nullptr ? 1 : 0;
  }
  return n;
}

}  // namespace tas
