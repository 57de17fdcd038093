// Per-host local-port use counts and the ephemeral-port allocator shared by
// the TAS service and the baseline engine stacks.
//
// A host counts the connections bound to each of its 65,536 local ports; an
// active open takes the next ephemeral port whose count is zero. The counts
// live in 1,024-port chunks materialised on first write, so a host carries
// memory for the port ranges its connections actually use (a few KiB) rather
// than a zero-filled 256 KiB table.
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

  // Connections bound to `port` (0 for a port never used).
  uint32_t count(uint16_t port) const {
    const uint32_t* chunk = chunks_[port >> kChunkBits].get();
    return chunk == nullptr ? 0 : chunk[port & kChunkMask];
  }
  void Acquire(uint16_t port);
  void Release(uint16_t port);

  // Returns the next port at or after the cursor (wrapping kEphemeralLast ->
  // kEphemeralFirst) with no connection bound, and moves the cursor past it.
  // Does not bind the port: the caller's Acquire does. Fatal if every
  // ephemeral port is busy.
  uint16_t AllocateEphemeral();

  // Chunks materialised so far (footprint tests).
  size_t chunks_in_use() const;

 private:
  static constexpr int kChunkBits = 10;
  static constexpr uint32_t kChunkMask = (1u << kChunkBits) - 1;
  static constexpr size_t kChunks = 65536 >> kChunkBits;

  std::array<std::unique_ptr<uint32_t[]>, kChunks> chunks_;
  uint16_t next_ephemeral_ = kEphemeralFirst;
};

}  // namespace tas

#endif  // SRC_UTIL_PORT_TABLE_H_
