#include "src/service/plan_cache.h"

#include <algorithm>

#include "src/base/logging.h"

namespace parallax {
namespace {

inline uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 12) + (h >> 4);
  return h;
}

}  // namespace

size_t PlanCacheKeyHash::operator()(const PlanCacheKey& key) const {
  uint64_t h = 0xcbf29ce484222325ull;
  h = Mix(h, key.model);
  h = Mix(h, key.resources);
  h = Mix(h, key.options);
  for (int64_t bucket : key.alpha_buckets) {
    h = Mix(h, static_cast<uint64_t>(bucket));
  }
  return static_cast<size_t>(h);
}

PlanCache::PlanCache(size_t capacity) : capacity_(std::max<size_t>(capacity, 1)) {}

std::optional<PartitionPlanSearchResult> PlanCache::Get(const PlanCacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void PlanCache::Put(const PlanCacheKey& key, PartitionPlanSearchResult result) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    // Refresh: the search is deterministic so the value should be unchanged, but a
    // re-Put (e.g. after an eviction raced a concurrent search) must stay coherent.
    it->second->second = std::move(result);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(result));
  map_[key] = lru_.begin();
  while (map_.size() > capacity_) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
    ++evictions_;
  }
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PlanCacheStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.size = map_.size();
  stats.capacity = capacity_;
  return stats;
}

}  // namespace parallax
