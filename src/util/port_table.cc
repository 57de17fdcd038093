#include "src/util/port_table.h"

#include "src/util/logging.h"

namespace tas {

void PortTable::Acquire(uint16_t port) {
  std::unique_ptr<Chunk>& chunk = chunks_[port >> kChunkBits];
  if (chunk == nullptr) {
    chunk = spare_ != nullptr ? std::move(spare_) : std::make_unique<Chunk>();
  }
  ++chunk->counts[port & kChunkMask];
  ++chunk->bindings;
}

void PortTable::Release(uint16_t port) {
  std::unique_ptr<Chunk>& chunk = chunks_[port >> kChunkBits];
  TAS_CHECK(chunk != nullptr && chunk->counts[port & kChunkMask] > 0) << "port " << port;
  --chunk->counts[port & kChunkMask];
  if (--chunk->bindings == 0) {
    // Every count is zero again, so the chunk can serve any range next.
    if (spare_ == nullptr) {
      spare_ = std::move(chunk);
    } else {
      chunk.reset();
    }
  }
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
