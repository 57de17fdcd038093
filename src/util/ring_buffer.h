// Byte rings with lazily grown, live-span backing storage.
//
// These are the building blocks for the per-flow RX/TX payload buffers of
// paper §3.1 (rx|tx_start/size/head/tail in Table 3): a region written at
// `head` and consumed at `tail`, with wraparound. Positions are free-running
// (32-bit wire sequences for TAS flows, 64-bit stream offsets for ByteRing),
// so callers reason in stream space.
//
// A ring has a *logical* capacity — the configured buffer size that window
// advertisement and free-space checks read — and a *physical* backing array
// that RingStorage sizes to what the connection actually keeps in flight.
#ifndef SRC_UTIL_RING_BUFFER_H_
#define SRC_UTIL_RING_BUFFER_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/util/logging.h"

namespace tas {

// Backing array of a byte ring addressed by free-running positions of type
// Pos. It holds nothing until the first write, which allocates the power of
// two covering that write (64 B for a 64-B message, 2 KiB for a full-MSS
// segment), then grows by doubling:
//
//  * The physical size is a power of two, so `pos & (size - 1)` places a
//    byte at the same slot whatever the position width — including across
//    the 2^32 wrap of 32-bit wire sequences, where `pos % size` for a size
//    that does not divide 2^32 would split adjacent bytes.
//  * A write that reaches past the array grows it to the next power of two
//    covering the live span: from `tail` (the oldest live position) to the
//    highest byte written so far, out-of-order placements included. The
//    ceiling is the power of two covering the ring's logical capacity.
//  * Growth lays out only the live span again. The array is never
//    value-initialised: every byte a reader can reach was written first.
//
// The logical capacity is the caller's (a flow's rx_size, ByteRing's
// capacity) and is passed to Write, so a ring has one source of truth.
template <typename Pos>
class RingStorage {
  static_assert(std::is_unsigned_v<Pos>, "ring positions are modular");

 public:
  // Physical bytes backing the ring (0 before the first write).
  size_t bytes() const { return size_; }
  uint8_t* data() { return data_.get(); }

  // Copies `len` bytes to positions [pos, pos + len). `tail` is the oldest
  // live position; the write must end within `limit` (the logical capacity)
  // of it.
  void Write(Pos tail, Pos pos, const uint8_t* src, size_t len, size_t limit) {
    if (len == 0) {
      return;
    }
    const size_t span = static_cast<size_t>(static_cast<Pos>(pos - tail)) + len;
    if (span > size_) {
      Grow(tail, span, limit);
    }
    const Pos end = static_cast<Pos>(pos + len);
    if (static_cast<Pos>(end - tail) > static_cast<Pos>(hi_ - tail)) {
      hi_ = end;
    }
    CopyIn(data_.get(), size_, pos, src, len);
  }

  // Copies `len` written bytes starting at `pos` into `dst`.
  void Read(Pos pos, uint8_t* dst, size_t len) const {
    if (len == 0) {
      return;
    }
    TAS_CHECK(size_ > 0);
    const size_t at = static_cast<size_t>(pos) & (size_ - 1);
    const size_t first = std::min(len, size_ - at);
    std::memcpy(dst, data_.get() + at, first);
    if (first < len) {
      std::memcpy(dst + first, data_.get(), len - first);
    }
  }

  // Appends `len` written bytes starting at `pos` to `out` (a packet's
  // payload: no zero-fill ahead of the copy).
  void AppendTo(Pos pos, size_t len, std::vector<uint8_t>* out) const {
    if (len == 0) {
      return;
    }
    TAS_CHECK(size_ > 0);
    const uint8_t* base = data_.get();
    const size_t at = static_cast<size_t>(pos) & (size_ - 1);
    const size_t first = std::min(len, size_ - at);
    out->insert(out->end(), base + at, base + at + first);
    out->insert(out->end(), base, base + (len - first));
  }

  // Frees the backing array; the next write allocates afresh.
  void Release() {
    data_.reset();
    size_ = 0;
  }

 private:
  static void CopyIn(uint8_t* base, size_t size, Pos pos, const uint8_t* src, size_t len) {
    const size_t at = static_cast<size_t>(pos) & (size - 1);
    const size_t first = std::min(len, size - at);
    std::memcpy(base + at, src, first);
    if (first < len) {
      std::memcpy(base, src + first, len - first);
    }
  }

  void Grow(Pos tail, size_t span, size_t limit) {
    const size_t ceiling = std::bit_ceil(limit);
    TAS_CHECK(span <= ceiling) << "ring write beyond its logical capacity";
    const size_t size = std::max(size_, std::bit_ceil(span));
    std::unique_ptr<uint8_t[]> fresh(new uint8_t[size]);
    if (size_ > 0) {
      // Re-place the live span [tail, hi_) under the new mask.
      const size_t live = static_cast<Pos>(hi_ - tail);
      const size_t at = static_cast<size_t>(tail) & (size_ - 1);
      const size_t first = std::min(live, size_ - at);
      CopyIn(fresh.get(), size, tail, data_.get() + at, first);
      CopyIn(fresh.get(), size, static_cast<Pos>(tail + first), data_.get(), live - first);
    } else {
      hi_ = tail;
    }
    data_ = std::move(fresh);
    size_ = size;
  }

  std::unique_ptr<uint8_t[]> data_;
  size_t size_ = 0;  // Physical bytes, a power of two once allocated.
  Pos hi_ = 0;       // One past the highest byte written (valid when size_ > 0).
};

// Ring over 64-bit stream offsets with a fixed logical capacity (the TCP
// engine's send and receive buffers).
class ByteRing {
 public:
  explicit ByteRing(size_t capacity);

  size_t capacity() const { return capacity_; }
  // Bytes currently stored (head - tail).
  size_t used() const { return static_cast<size_t>(head_ - tail_); }
  size_t free_space() const { return capacity() - used(); }
  bool empty() const { return head_ == tail_; }
  // Physical bytes backing the ring right now (see RingStorage).
  size_t storage_bytes() const { return storage_.bytes(); }

  // Stream offset of the next byte to be written / read.
  uint64_t head() const { return head_; }
  uint64_t tail() const { return tail_; }

  // Appends up to `len` bytes at head; returns the number written.
  size_t Write(const uint8_t* src, size_t len);

  // Writes `len` bytes at an absolute stream offset >= tail without moving
  // head past `offset + len` unless needed. Used for out-of-order arrival
  // placement into the RX buffer. Returns false if the range does not fit
  // within [tail, tail + capacity).
  bool WriteAt(uint64_t offset, const uint8_t* src, size_t len);

  // Advances head to `offset` (must be within capacity of tail); bytes in
  // [old_head, offset) must have been placed by WriteAt beforehand.
  void AdvanceHead(uint64_t offset);

  // Copies up to `len` bytes from tail into `dst` and consumes them;
  // returns the number read.
  size_t Read(uint8_t* dst, size_t len);

  // Copies up to `len` bytes starting at absolute offset (>= tail) without
  // consuming. Returns bytes copied (0 if offset >= head).
  size_t Peek(uint64_t offset, uint8_t* dst, size_t len) const;

  // Drops `len` bytes from the tail without copying (transmit buffer space
  // reclamation on ACK, §3.1).
  void Discard(size_t len);

  // Resets to empty with head = tail = 0 and releases the backing storage.
  void Clear();

 private:
  RingStorage<uint64_t> storage_;
  size_t capacity_;
  uint64_t head_ = 0;  // Next write position (stream offset).
  uint64_t tail_ = 0;  // Next read position (stream offset).
};

}  // namespace tas

#endif  // SRC_UTIL_RING_BUFFER_H_
