#include "src/tcp/reassembly.h"

#include <algorithm>

#include "src/util/logging.h"

namespace tas {

void ReassemblyBuffer::TouchRecency(uint64_t start) {
  DropRecency(start);
  recency_.insert(recency_.begin(), start);
}

void ReassemblyBuffer::DropRecency(uint64_t start) {
  recency_.erase(std::remove(recency_.begin(), recency_.end(), start), recency_.end());
}

ReassemblyBuffer::InsertResult ReassemblyBuffer::Insert(uint64_t next, uint64_t offset,
                                                        uint64_t len) {
  InsertResult result;
  uint64_t start = std::max(offset, next);
  uint64_t end = offset + len;
  if (end <= start) {
    result.duplicate = true;
    return result;
  }

  // Merge with any overlapping or abutting intervals.
  bool absorbed_new_bytes = false;
  auto it = intervals_.lower_bound(start);
  if (it != intervals_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= start) {
      it = prev;
    }
  }
  uint64_t merged_start = start;
  uint64_t merged_end = end;
  while (it != intervals_.end() && it->first <= merged_end) {
    if (start < it->first || end > it->second) {
      absorbed_new_bytes = true;
    }
    merged_start = std::min(merged_start, it->first);
    merged_end = std::max(merged_end, it->second);
    DropRecency(it->first);
    it = intervals_.erase(it);
  }
  if (merged_start == start && merged_end == end) {
    absorbed_new_bytes = true;  // Fresh interval, no overlap at all.
  }
  result.duplicate = !absorbed_new_bytes && (merged_start < start || merged_end > end);

  if (merged_start <= next) {
    // Contiguous with the stream: everything up to merged_end is in order.
    result.advanced = merged_end - next;
    // Consuming may make further intervals contiguous.
    auto follow = intervals_.begin();
    uint64_t new_next = merged_end;
    while (follow != intervals_.end() && follow->first <= new_next) {
      new_next = std::max(new_next, follow->second);
      DropRecency(follow->first);
      follow = intervals_.erase(follow);
    }
    result.advanced = new_next - next;
    return result;
  }

  intervals_[merged_start] = merged_end;
  TouchRecency(merged_start);
  return result;
}

std::vector<std::pair<uint64_t, uint64_t>> ReassemblyBuffer::SackBlocks(
    size_t max_blocks) const {
  std::vector<std::pair<uint64_t, uint64_t>> blocks;
  for (uint64_t start : recency_) {
    auto it = intervals_.find(start);
    if (it == intervals_.end()) {
      continue;
    }
    blocks.emplace_back(it->first, it->second);
    if (blocks.size() >= max_blocks) {
      break;
    }
  }
  return blocks;
}

std::vector<std::pair<uint64_t, uint64_t>> ReassemblyBuffer::Intervals() const {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  out.reserve(intervals_.size());
  for (const auto& [start, end] : intervals_) {
    out.emplace_back(start, end);
  }
  return out;
}

uint64_t ReassemblyBuffer::PendingBytes() const {
  uint64_t total = 0;
  for (const auto& [start, end] : intervals_) {
    total += end - start;
  }
  return total;
}

void ReassemblyBuffer::Clear() {
  intervals_.clear();
  recency_.clear();
}

}  // namespace tas
