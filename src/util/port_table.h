// Per-host local-port use counts and the ephemeral-port allocator shared by
// the TAS service and the baseline engine stacks.
//
// A host counts the connections bound to each of its 65,536 local ports; an
// active open takes the next ephemeral port whose count is zero. The counts
// live in 1,024-port chunks materialised on first bind and released when
// their last binding goes, so a host carries memory for the port ranges its
// live connections use (a few KiB) rather than a zero-filled 256 KiB table,
// and the ephemeral cursor's walk across the range leaves nothing behind.
// One released chunk is kept as a spare for the next chunk the host needs:
// connect/close churn, which walks the cursor from chunk to chunk, recycles
// it instead of allocating.
#ifndef SRC_UTIL_PORT_TABLE_H_
#define SRC_UTIL_PORT_TABLE_H_

#include <array>
#include <cstdint>
#include <memory>

namespace tas {

class PortTable {
 public:
  // Ephemeral range, inclusive; allocation walks it round-robin.
  static constexpr uint16_t kEphemeralFirst = 20000;
  static constexpr uint16_t kEphemeralLast = 65000;

  // Connections bound to `port` (0 for a port with no binding).
  uint32_t count(uint16_t port) const {
    const Chunk* chunk = chunks_[port >> kChunkBits].get();
    return chunk == nullptr ? 0 : chunk->counts[port & kChunkMask];
  }
  void Acquire(uint16_t port);
  void Release(uint16_t port);

  // Returns the next port at or after the cursor (wrapping kEphemeralLast ->
  // kEphemeralFirst) with no connection bound, and moves the cursor past it.
  // Does not bind the port: the caller's Acquire does. Fatal if every
  // ephemeral port is busy.
  uint16_t AllocateEphemeral();

  // Chunks holding at least one binding (footprint tests).
  size_t chunks_in_use() const;

 private:
  static constexpr int kChunkBits = 10;
  static constexpr uint32_t kChunkMask = (1u << kChunkBits) - 1;
  static constexpr size_t kChunks = 65536 >> kChunkBits;

  struct Chunk {
    uint32_t bindings = 0;  // Sum of `counts`: the chunk is released at 0.
    uint32_t counts[size_t{1} << kChunkBits] = {};
  };

  std::array<std::unique_ptr<Chunk>, kChunks> chunks_;
  std::unique_ptr<Chunk> spare_;  // A released chunk, all counts zero.
  uint16_t next_ephemeral_ = kEphemeralFirst;
};

}  // namespace tas

#endif  // SRC_UTIL_PORT_TABLE_H_
