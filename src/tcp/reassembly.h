// Out-of-order segment tracking, in unwrapped stream-offset space: full
// multi-interval reassembly with SACK block generation, as a Linux-class
// stack keeps (paper §5.2: "Linux keeps all received out-of-order segments
// and also issues selective acknowledgements"). The TAS fast path's
// single-interval variant (paper §3.1) lives in FastPathCore::HandlePayload.
//
// The buffer tracks *bookkeeping only*; payload bytes are placed into the
// flow's receive ByteRing by the caller (ByteRing::WriteAt).
#ifndef SRC_TCP_REASSEMBLY_H_
#define SRC_TCP_REASSEMBLY_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace tas {

class ReassemblyBuffer {
 public:
  struct InsertResult {
    // Bytes by which the contiguous stream advanced past `next`.
    uint64_t advanced = 0;
    // True if the segment contributed no new bytes.
    bool duplicate = false;
  };

  // Inserts segment [offset, offset+len). `next` is the current expected
  // stream offset (rcv_nxt); bytes below it are clipped. The caller must
  // have verified the segment fits the receive window.
  InsertResult Insert(uint64_t next, uint64_t offset, uint64_t len);

  // Up to `max_blocks` SACK ranges [start, end), most recently updated
  // first (RFC 2018 ordering).
  std::vector<std::pair<uint64_t, uint64_t>> SackBlocks(size_t max_blocks = 3) const;

  // All intervals in ascending order (sender-side scoreboard walks).
  std::vector<std::pair<uint64_t, uint64_t>> Intervals() const;

  // Total buffered out-of-order bytes.
  uint64_t PendingBytes() const;
  bool Empty() const { return intervals_.empty(); }
  size_t NumIntervals() const { return intervals_.size(); }
  void Clear();

 private:
  std::map<uint64_t, uint64_t> intervals_;  // start -> end, disjoint.
  std::vector<uint64_t> recency_;           // Interval starts, most recent first.

  void TouchRecency(uint64_t start);
  void DropRecency(uint64_t start);
};

}  // namespace tas

#endif  // SRC_TCP_REASSEMBLY_H_
