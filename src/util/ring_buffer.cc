#include "src/util/ring_buffer.h"

#include <algorithm>

#include "src/util/logging.h"

namespace tas {

ByteRing::ByteRing(size_t capacity) : capacity_(capacity) { TAS_CHECK(capacity > 0); }

size_t ByteRing::Write(const uint8_t* src, size_t len) {
  const size_t n = std::min(len, free_space());
  if (n == 0) {
    return 0;
  }
  storage_.Write(tail_, head_, src, n, capacity_);
  head_ += n;
  return n;
}

bool ByteRing::WriteAt(uint64_t offset, const uint8_t* src, size_t len) {
  if (offset < tail_ || offset + len > tail_ + capacity()) {
    return false;
  }
  storage_.Write(tail_, offset, src, len, capacity_);
  return true;
}

void ByteRing::AdvanceHead(uint64_t offset) {
  TAS_CHECK(offset >= head_);
  TAS_CHECK(offset <= tail_ + capacity());
  head_ = offset;
}

size_t ByteRing::Read(uint8_t* dst, size_t len) {
  const size_t n = std::min(len, used());
  if (n == 0) {
    return 0;
  }
  storage_.Read(tail_, dst, n);
  tail_ += n;
  return n;
}

size_t ByteRing::Peek(uint64_t offset, uint8_t* dst, size_t len) const {
  if (offset < tail_ || offset >= head_) {
    return 0;
  }
  const size_t n = std::min<uint64_t>(len, head_ - offset);
  storage_.Read(offset, dst, n);
  return n;
}

void ByteRing::Discard(size_t len) {
  TAS_CHECK(len <= used());
  tail_ += len;
}

void ByteRing::Clear() {
  head_ = 0;
  tail_ = 0;
  storage_.Release();
}

}  // namespace tas
