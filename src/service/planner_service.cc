#include "src/service/planner_service.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/core/partition_plan.h"

namespace parallax {
namespace {

inline uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 12) + (h >> 4);
  return h;
}

inline uint64_t MixDouble(uint64_t h, double v) { return Mix(h, std::bit_cast<uint64_t>(v)); }

inline uint64_t MixString(uint64_t h, std::string_view s) {
  uint64_t fnv = 0xcbf29ce484222325ull;
  for (char c : s) {
    fnv = (fnv ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  return Mix(h, Mix(fnv, s.size()));
}

// Log-space alpha quantization: alphas within a relative factor of (1 + quantum) share
// a bucket, so the representative's relative error is bounded by ~quantum/2 (see
// docs/planner_service.md). Bucket 0 is alpha = 1.0 (dense); the clamp floor keeps
// pathological alphas from producing unbounded bucket ids.
int64_t AlphaBucket(double alpha, double quantum) {
  if (quantum <= 0.0) {
    return std::bit_cast<int64_t>(alpha);  // quantization disabled: exact bit identity
  }
  const double clamped = std::clamp(alpha, 1e-9, 1.0);
  return std::llround(std::log(clamped) / std::log1p(quantum));
}

double BucketRepresentative(int64_t bucket, double quantum) {
  return std::exp(static_cast<double>(bucket) * std::log1p(quantum));
}

uint64_t ModelFingerprint(const PlannerQuery& query) {
  uint64_t h = 0x6d6f64656cull;  // "model"
  h = Mix(h, query.variables.size());
  for (const PlannerVariable& v : query.variables) {
    h = MixString(h, v.sync.spec.name);
    h = Mix(h, static_cast<uint64_t>(v.sync.spec.num_elements));
    h = Mix(h, static_cast<uint64_t>(v.sync.spec.row_elements));
    h = Mix(h, v.sync.spec.is_sparse ? 1 : 0);
    h = Mix(h, static_cast<uint64_t>(v.sync.method));
    h = Mix(h, static_cast<uint64_t>(v.sync.compression.kind));
    h = MixDouble(h, v.sync.compression.ratio);
    h = Mix(h, v.sync.compression.error_feedback ? 1 : 0);
    h = Mix(h, v.partitioned ? 1 : 0);
    h = Mix(h, static_cast<uint64_t>(v.rows));
    if (!v.partitioned) {
      // Fixed layout the plan does not control — part of the simulated model. For
      // partitioned variables the searched plan overrides both fields, so including
      // them would split identical searches across keys.
      h = Mix(h, static_cast<uint64_t>(v.sync.partitions));
      h = Mix(h, v.sync.placement.size());
      for (int server : v.sync.placement) {
        h = Mix(h, static_cast<uint64_t>(server));
      }
    }
  }
  // A target's name, size and cap are its variable's, mixed above. The targets add
  // their count (0 for a uniform query, and for a per-variable one with no target,
  // which runs the same uniform search) and, under a warm start, where the search
  // resumes. The search reads that state only then, and keying on it otherwise would
  // split identical searches.
  const std::vector<PartitionSearchVariable> targets = SearchTargets(query);
  h = Mix(h, targets.size());
  if (query.options.warm_start) {
    for (const PartitionSearchVariable& t : targets) {
      h = Mix(h, static_cast<uint64_t>(t.previous_partitions));
      h = Mix(h, t.drifted ? 1 : 0);
    }
  }
  return h;
}

uint64_t ResourcesFingerprint(const PlannerQuery& query) {
  uint64_t h = 0x7265736f75726365ull;  // "resource"
  const ClusterSpec& c = query.cluster;
  h = Mix(h, static_cast<uint64_t>(c.num_machines));
  h = Mix(h, static_cast<uint64_t>(c.gpus_per_machine));
  h = Mix(h, static_cast<uint64_t>(c.cores_per_machine));
  h = MixDouble(h, c.nic_bandwidth);
  h = MixDouble(h, c.nic_latency);
  h = MixDouble(h, c.pcie_bandwidth);
  h = MixDouble(h, c.pcie_latency);
  h = Mix(h, static_cast<uint64_t>(c.topology.num_racks));
  h = MixDouble(h, c.topology.spine_bandwidth);
  h = MixDouble(h, c.topology.spine_latency);
  const IterationSimConfig& s = query.sim_config;
  h = Mix(h, s.ps_local_aggregation ? 1 : 0);
  h = Mix(h, s.ps_machine_level_pulls ? 1 : 0);
  h = Mix(h, static_cast<uint64_t>(s.gatherv_algorithm));
  h = Mix(h, s.include_index_bytes ? 1 : 0);
  const SyncCostParams& p = s.costs;
  h = MixDouble(h, p.sparse_agg_seconds_per_element);
  h = MixDouble(h, p.sparse_update_seconds_per_element);
  h = MixDouble(h, p.sparse_flush_seconds_per_element);
  h = MixDouble(h, p.dense_agg_seconds_per_element);
  h = MixDouble(h, p.dense_update_seconds_per_element);
  h = MixDouble(h, p.request_overhead_seconds);
  h = MixDouble(h, p.partition_overhead_seconds);
  h = MixDouble(h, p.stitch_seconds_per_partition);
  h = MixDouble(h, p.worker_dispatch_seconds_per_piece);
  h = MixDouble(h, p.gpu_dense_apply_seconds_per_element);
  h = MixDouble(h, p.gpu_sparse_apply_seconds_per_element);
  h = MixDouble(h, p.collective_step_overhead_seconds);
  h = MixDouble(h, p.compress_seconds_per_element);
  h = MixDouble(h, p.gatherv_cross_machine_inflation);
  h = Mix(h, static_cast<uint64_t>(p.gatherv_ring_threshold_bytes));
  h = MixDouble(h, query.gpu_compute_seconds);
  h = Mix(h, static_cast<uint64_t>(query.compute_chunks));
  return h;
}

uint64_t OptionsFingerprint(const PartitionSearchOptions& o) {
  uint64_t h = 0x6f7074696f6e73ull;  // "options"
  h = Mix(h, static_cast<uint64_t>(o.initial_partitions));
  h = Mix(h, static_cast<uint64_t>(o.min_partitions));
  h = Mix(h, static_cast<uint64_t>(o.max_partitions));
  h = Mix(h, o.warm_start ? 1 : 0);
  h = Mix(h, o.placement ? 1 : 0);
  return h;
}

}  // namespace

Status ValidatePlannerQuery(const PlannerQuery& query) {
  PX_RETURN_IF_ERROR(ValidateTimingInputs(query.cluster, query.gpu_compute_seconds,
                                          query.sim_config.costs));
  if (query.variables.empty()) {
    return Status::InvalidArgument("a query needs at least one variable");
  }
  for (const PlannerVariable& v : query.variables) {
    const VariableSpec& spec = v.sync.spec;
    // Negated, so that a NaN alpha fails it too.
    if (!(spec.alpha >= 0.0 && spec.alpha <= 1.0)) {
      return Status::InvalidArgument(
          StrFormat("variable '%s': alpha must be in [0, 1]", spec.name.c_str()));
    }
    if (spec.num_elements < 1 || spec.row_elements < 1 || v.rows < 1) {
      return Status::InvalidArgument(
          StrFormat("variable '%s': num_elements, row_elements and rows must be >= 1",
                    spec.name.c_str()));
    }
    if (v.partitioned) {
      continue;  // the searched plan sets its partitions and placement
    }
    if (v.sync.partitions < 1) {
      return Status::InvalidArgument(
          StrFormat("variable '%s': partitions must be >= 1", spec.name.c_str()));
    }
    for (int server : v.sync.placement) {
      if (server < 0 || server >= query.cluster.num_machines) {
        return Status::InvalidArgument(
            StrFormat("variable '%s': placement names server %d of %d machines",
                      spec.name.c_str(), server, query.cluster.num_machines));
      }
    }
  }
  return Status::Ok();
}

std::vector<PartitionSearchVariable> SearchTargets(const PlannerQuery& query) {
  std::vector<PartitionSearchVariable> targets;
  if (query.mode != PartitionSearchMode::kPerVariable) {
    return targets;
  }
  for (const PlannerVariable& v : query.variables) {
    if (!v.partitioned || !v.sync.spec.is_sparse) {
      continue;
    }
    PartitionSearchVariable target;
    target.name = v.sync.spec.name;
    target.alpha = v.sync.spec.alpha;
    target.num_elements = v.sync.spec.num_elements;
    target.max_partitions = v.rows;
    target.previous_partitions = v.sync.partitions;
    target.drifted = v.drifted;
    targets.push_back(std::move(target));
  }
  return targets;
}

PartitionPlanSearchResult SearchPlan(const PlannerQuery& query, SimulationArena* arena) {
  // A fresh simulator per candidate layout over the caller's arena: cached schedules
  // and task storage persist across the whole search. Simulated times are
  // arena-independent, which is what lets the service memoize a result for every
  // future tenant at its key.
  auto measure_plan = [&](const PartitionPlan& plan) {
    IterationSimulator sim(query.cluster, ApplyPlanToVariables(query.variables, plan),
                           query.gpu_compute_seconds, query.compute_chunks,
                           query.sim_config, arena);
    return sim.MeasureIterationSeconds();
  };
  const std::vector<PartitionSearchVariable> targets = SearchTargets(query);
  if (!targets.empty()) {
    return SearchPartitionPlan(measure_plan, targets, query.cluster, query.options);
  }
  PartitionPlanSearchResult result;
  result.uniform = SearchPartitions(
      [&](int partitions) { return measure_plan(PartitionPlan::Uniform(partitions)); },
      query.options);
  const int best = result.uniform.best_partitions;
  result.plan = PartitionPlan::Uniform(best);
  const auto& samples = result.uniform.samples;
  auto sampled = std::find_if(samples.begin(), samples.end(),
                              [best](const auto& sample) { return sample.first == best; });
  result.seconds = sampled != samples.end() ? sampled->second : measure_plan(result.plan);
  result.uniform_seconds = result.seconds;
  result.unplaced_seconds = result.seconds;  // no placement was searched
  result.evaluations = static_cast<int>(samples.size());
  return result;
}

PlannerService::PlannerService(PlannerServiceOptions options)
    : options_(options),
      cache_(options.cache_capacity),
      arenas_(options.max_pooled_arenas) {
  // Uncapped: the planner's fan-out has always scaled to the full machine
  // (DefaultWorkerCount's default 16-lane ceiling is sized for sparse kernels).
  const int lanes = options_.max_workers > 0
                        ? options_.max_workers
                        : DefaultWorkerCount(std::numeric_limits<int>::max());
  if (lanes > 1) {
    pool_ = std::make_unique<ThreadPool>(lanes);
  }
}

ArenaPool::Lease PlannerService::AcquireArena() { return arenas_.Acquire(); }

void PlannerService::Canonicalize(PlannerQuery* query) const {
  PX_CHECK(query != nullptr);
  const double quantum = options_.alpha_quantum;
  if (quantum <= 0.0) {
    return;  // exact-alpha keys; nothing to snap
  }
  for (PlannerVariable& v : query->variables) {
    v.sync.spec.alpha = BucketRepresentative(AlphaBucket(v.sync.spec.alpha, quantum), quantum);
  }
}

PlanCacheKey PlannerService::KeyFor(const PlannerQuery& query) const {
  PlanCacheKey key;
  key.model = ModelFingerprint(query);
  key.resources = ResourcesFingerprint(query);
  key.options = OptionsFingerprint(query.options);
  key.alpha_buckets.reserve(query.variables.size());
  for (const PlannerVariable& v : query.variables) {
    key.alpha_buckets.push_back(AlphaBucket(v.sync.spec.alpha, options_.alpha_quantum));
  }
  return key;
}

PartitionPlanSearchResult PlannerService::Search(const PlannerQuery& query) {
  ArenaPool::Lease lease = AcquireArena();
  return SearchPlan(query, lease.get());
}

StatusOr<PlannerResult> PlannerService::Plan(const PlannerQuery& original) {
  PX_RETURN_IF_ERROR(ValidatePlannerQuery(original));
  PX_RETURN_IF_ERROR(ValidateSearchOptions(original.options));
  queries_.fetch_add(1, std::memory_order_relaxed);
  PlannerQuery query = original;
  Canonicalize(&query);
  const PlanCacheKey key = KeyFor(query);

  std::shared_ptr<InFlight> flight;
  bool owner = false;
  {
    // One mu_ hold covers both the cache probe and the in-flight probe. The owner
    // publishes (Put, then erase) inside a single mu_ section below, so a query
    // either sees the cached plan or the in-flight marker — a duplicate search is
    // impossible.
    std::lock_guard<std::mutex> lock(mu_);
    if (std::optional<PartitionPlanSearchResult> hit = cache_.Get(key)) {
      return PlannerResult{std::move(*hit), /*cache_hit=*/true, /*coalesced=*/false};
    }
    auto it = in_flight_.find(key);
    if (it != in_flight_.end()) {
      flight = it->second;
    } else {
      flight = std::make_shared<InFlight>();
      in_flight_.emplace(key, flight);
      owner = true;
    }
  }

  if (!owner) {
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    // Safe to block here even from a PlanMany pool lane: the owner is by definition
    // already executing a serial search on some thread and never coalesces itself.
    std::unique_lock<std::mutex> lock(flight->mu);
    flight->cv.wait(lock, [&] { return flight->done; });
    return PlannerResult{flight->result, /*cache_hit=*/false, /*coalesced=*/true};
  }

  searches_.fetch_add(1, std::memory_order_relaxed);
  PartitionPlanSearchResult searched = Search(query);
  {
    std::lock_guard<std::mutex> lock(mu_);
    cache_.Put(key, searched);
    in_flight_.erase(key);
  }
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->result = searched;
    flight->done = true;
  }
  flight->cv.notify_all();
  return PlannerResult{std::move(searched), /*cache_hit=*/false, /*coalesced=*/false};
}

StatusOr<std::vector<PlannerResult>> PlannerService::PlanMany(
    const std::vector<PlannerQuery>& queries) {
  for (size_t i = 0; i < queries.size(); ++i) {
    Status status = ValidatePlannerQuery(queries[i]);
    if (status.ok()) {
      status = ValidateSearchOptions(queries[i].options);
    }
    if (!status.ok()) {
      return Status::InvalidArgument(StrFormat("query %zu: %s", i, status.message().c_str()));
    }
  }
  std::vector<PlannerResult> results(queries.size());
  if (queries.empty()) {
    return results;
  }
  // Group by key: one representative per distinct key actually plans; duplicates share
  // its result (the batch-level form of in-flight coalescing).
  std::vector<PlannerQuery> canonical = queries;
  std::unordered_map<PlanCacheKey, std::vector<size_t>, PlanCacheKeyHash> groups;
  for (size_t i = 0; i < canonical.size(); ++i) {
    Canonicalize(&canonical[i]);
    groups[KeyFor(canonical[i])].push_back(i);
  }
  std::vector<size_t> representatives;
  representatives.reserve(groups.size());
  for (const auto& [key, members] : groups) {
    representatives.push_back(members.front());
  }
  // Fan the representatives across the shared pool — no per-call thread spawn/join.
  // Workers clamp to min(distinct queries, pool lanes) via the chunk grain; each
  // lane runs its searches serially on its own leased arena.
  const int64_t total = static_cast<int64_t>(representatives.size());
  auto plan_range = [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const size_t index = representatives[static_cast<size_t>(i)];
      results[index] = Plan(canonical[index]).value();  // validated above
    }
  };
  const int64_t lanes = pool_ != nullptr ? pool_->num_threads() : 1;
  const int64_t workers = std::min(total, lanes);
  if (workers <= 1) {
    plan_range(0, total);
  } else {
    pool_->ParallelFor(total, (total + workers - 1) / workers, plan_range);
  }
  for (const auto& [key, members] : groups) {
    for (size_t m = 1; m < members.size(); ++m) {
      queries_.fetch_add(1, std::memory_order_relaxed);
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      results[members[m]] = results[members.front()];
      results[members[m]].cache_hit = false;
      results[members[m]].coalesced = true;
    }
  }
  return results;
}

PlannerServiceStats PlannerService::stats() const {
  PlannerServiceStats stats;
  stats.cache = cache_.stats();
  stats.queries = queries_.load(std::memory_order_relaxed);
  stats.searches = searches_.load(std::memory_order_relaxed);
  stats.coalesced = coalesced_.load(std::memory_order_relaxed);
  stats.pooled_arenas = arenas_.pooled();
  stats.total_arenas = arenas_.total();
  return stats;
}

}  // namespace parallax
