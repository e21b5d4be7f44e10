// Memoized partition searches keyed by what actually determines a search's outcome.
//
// SearchPlan is deterministic: the same (simulated cluster, per-variable
// synchronization inputs, search mode and options, alphas) always produces the same
// result. The PlannerService exploits that by caching each search's whole result under
// a PlanCacheKey — three fingerprints plus the quantized alpha vector
// (docs/planner_service.md):
//
//   model     — every input of the simulated iteration that comes from the model: each
//               variable's identity/size/method (and, for variables the plan does NOT
//               control, its fixed partition count and placement), whether the query
//               searches per variable, and, under a warm start, the searched variables'
//               current counts and drift flags. Alphas are excluded: they live in
//               alpha_buckets.
//   resources — the ClusterSpec/TopologySpec, the IterationSimConfig (including every
//               calibrated cost constant), and the compute model (gpu seconds, chunks).
//   options   — every PartitionSearchOptions field.
//
// alpha_buckets carries one quantized bucket per variable, in order. Searches run at
// bucket-representative alphas, so a cache hit is bit-identical to a fresh search at
// the same key — the representative IS the searched input, not an approximation of
// it.
//
// The cache is thread-safe (one mutex, LRU eviction) and self-contained: it never calls
// back into the service, so the service may hold its own lock across Get/Put.
#ifndef PARALLAX_SRC_SERVICE_PLAN_CACHE_H_
#define PARALLAX_SRC_SERVICE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/cost_model.h"

namespace parallax {

struct PlanCacheKey {
  uint64_t model = 0;
  uint64_t resources = 0;
  uint64_t options = 0;
  // One bucket per variable, in query order. With quantization disabled each entry is
  // the raw alpha's bit pattern.
  std::vector<int64_t> alpha_buckets;

  bool operator==(const PlanCacheKey& other) const = default;
};

struct PlanCacheKeyHash {
  size_t operator()(const PlanCacheKey& key) const;
};

struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  size_t size = 0;
  size_t capacity = 0;
};

// Thread-safe LRU plan cache. Get bumps recency and counts a hit or miss; Put inserts
// (or refreshes) and evicts the least-recently-used entry past the capacity.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity);

  std::optional<PartitionPlanSearchResult> Get(const PlanCacheKey& key);
  void Put(const PlanCacheKey& key, PartitionPlanSearchResult result);

  PlanCacheStats stats() const;

 private:
  using Entry = std::pair<PlanCacheKey, PartitionPlanSearchResult>;

  mutable std::mutex mu_;
  size_t capacity_;                  // fixed after construction
  std::list<Entry> lru_;             // guarded by mu_; front = most recently used
  std::unordered_map<PlanCacheKey, std::list<Entry>::iterator, PlanCacheKeyHash>
      map_;                          // guarded by mu_
  uint64_t hits_ = 0;                // guarded by mu_
  uint64_t misses_ = 0;              // guarded by mu_
  uint64_t evictions_ = 0;           // guarded by mu_
};

}  // namespace parallax

#endif  // PARALLAX_SRC_SERVICE_PLAN_CACHE_H_
