// HotObjectCache: the proxy's in-memory hot-object cache — strict LRU over a
// byte budget. Object bodies are synthetic (a deterministic function of the
// object id, see proxy_wire.h), so the cache stores only {id -> body_len}
// and charges its byte budget with the body length; the simulation still
// models the *work* of a hit (response bytes written from proxy memory)
// versus a miss (origin round trip) through the proxy's cycle charges.
#ifndef SRC_PROXY_OBJECT_CACHE_H_
#define SRC_PROXY_OBJECT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

namespace tas {

struct HotObjectCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  // Insert() calls rejected because the object alone exceeds the budget.
  uint64_t oversize_rejects = 0;
};

class HotObjectCache {
 public:
  explicit HotObjectCache(size_t capacity_bytes) : capacity_(capacity_bytes) {}

  // Looks up `object_id`, refreshing recency on hit. Returns true and fills
  // `*body_len` on a hit; counts the access either way.
  bool Lookup(uint32_t object_id, uint32_t* body_len);

  // Inserts (or refreshes) an object, evicting LRU entries until the byte
  // budget holds. Objects larger than the whole budget are rejected.
  void Insert(uint32_t object_id, uint32_t body_len);

  size_t bytes() const { return bytes_; }
  size_t entries() const { return lru_.size(); }
  size_t capacity_bytes() const { return capacity_; }
  const HotObjectCacheStats& stats() const { return stats_; }

 private:
  using LruList = std::list<std::pair<uint32_t, uint32_t>>;  // {id, body_len}.

  void EvictOne();

  size_t capacity_;
  size_t bytes_ = 0;
  LruList lru_;  // Front = most recent.
  std::unordered_map<uint32_t, LruList::iterator> index_;
  HotObjectCacheStats stats_;
};

}  // namespace tas

#endif  // SRC_PROXY_OBJECT_CACHE_H_
