#include "src/service/planner_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <string>
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

// Log-space alpha quantization: alphas within a relative factor of (1 + quantum) share
// a bucket, so the representative's relative error is bounded by ~quantum/2 (see
// docs/planner_service.md). Bucket 0 is alpha = 1.0 (dense); the clamp floor keeps
// pathological alphas from producing unbounded bucket ids.
int64_t AlphaBucket(double alpha, double quantum) {
  const double clamped = std::clamp(alpha, 1e-9, 1.0);
  return std::llround(std::log(clamped) / std::log1p(quantum));
}

double BucketRepresentative(int64_t bucket, double quantum) {
  return std::exp(static_cast<double>(bucket) * std::log1p(quantum));
}

// Whether a search re-shards `v` one variable at a time (SearchTargets).
bool IsSearchTarget(PartitionSearchMode mode, const PlannerVariable& v) {
  return mode == PartitionSearchMode::kPerVariable && v.partitioned && v.sync.spec.is_sparse;
}

bool IsFinished(const std::shared_future<PartitionPlanSearchResult>& search) {
  return search.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
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
    // A NaN ratio would make the key equal to no other; a top-k ratio <= 0 selects
    // nothing, which TopKPsEngine refuses too.
    const CompressionSpec& compression = v.sync.compression;
    if (std::isnan(compression.ratio) ||
        (compression.kind == CompressionKind::kTopK && !(compression.ratio > 0.0))) {
      return Status::InvalidArgument(StrFormat(
          "variable '%s': compression ratio must be a number, and > 0 for top-k",
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
  for (const PlannerVariable& v : query.variables) {
    if (!IsSearchTarget(query.mode, v)) {
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
      capacity_(std::max<size_t>(options.cache_capacity, 1)),
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
  bool has_target = false;
  for (PlannerVariable& v : query->variables) {
    if (quantum > 0.0) {
      v.sync.spec.alpha = BucketRepresentative(AlphaBucket(v.sync.spec.alpha, quantum), quantum);
    }
    const bool target = IsSearchTarget(query->mode, v);
    has_target = has_target || target;
    // SearchTargets hands a warm start its targets' partitions and drift flags; a plan
    // sets every partitioned variable's partitions and placement (ApplyPlanToVariables).
    if (!(target && query->options.warm_start)) {
      v.drifted = PlannerVariable{}.drifted;
      if (v.partitioned) {
        v.sync.partitions = VariableSync{}.partitions;
      }
    }
    if (v.partitioned) {
      v.sync.placement.clear();
    }
  }
  if (!has_target) {
    query->mode = PartitionSearchMode::kUniform;
  }
}

PlannerQuery PlannerService::KeyFor(const PlannerQuery& query) const {
  PlannerQuery key = query;
  Canonicalize(&key);
  return key;
}

size_t PlannerService::KeyHash::operator()(const PlannerQuery& key) const {
  // Equal keys hash alike; operator== tells apart keys that share these fields.
  uint64_t h = Mix(static_cast<uint64_t>(key.mode),
                   static_cast<uint64_t>(key.cluster.num_machines));
  for (const PlannerVariable& v : key.variables) {
    h = Mix(h, std::hash<std::string>{}(v.sync.spec.name));
    h = Mix(h, static_cast<uint64_t>(v.sync.spec.num_elements));
    h = Mix(h, std::hash<double>{}(v.sync.spec.alpha));
  }
  return static_cast<size_t>(h);
}

PartitionPlanSearchResult PlannerService::Search(const PlannerQuery& query) {
  ArenaPool::Lease lease = AcquireArena();
  return SearchPlan(query, lease.get());
}

StatusOr<PlannerResult> PlannerService::Plan(const PlannerQuery& original) {
  PX_RETURN_IF_ERROR(ValidatePlannerQuery(original));
  PX_RETURN_IF_ERROR(ValidateSearchOptions(original.options));
  const PlannerQuery key = KeyFor(original);

  PlannerResult result;
  std::shared_future<PartitionPlanSearchResult> search;
  // Set when this query searches; the table's entry holds its future.
  std::optional<std::promise<PartitionPlanSearchResult>> promise;
  Entry* running = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counts_.queries;
    auto [it, inserted] = table_.try_emplace(key);
    Entry& entry = it->second;
    if (inserted) {
      ++counts_.cache.misses;
      ++counts_.searches;
      promise.emplace();
      entry.search = promise->get_future().share();
      running = &entry;
    } else if (IsFinished(entry.search)) {
      ++counts_.cache.hits;
      entry.last_used = ++tick_;
      result.cache_hit = true;
    } else {
      ++counts_.cache.misses;
      ++counts_.coalesced;
      result.coalesced = true;
    }
    search = entry.search;
  }

  if (running != nullptr) {
    PartitionPlanSearchResult searched = Search(key);
    std::lock_guard<std::mutex> lock(mu_);
    // Finishing and evicting under one hold, so a query sees a key either running or
    // finished. `running` is still in the table: only finished entries are evicted.
    promise->set_value(std::move(searched));
    running->last_used = ++tick_;
    size_t finished = 0;
    auto lru = table_.end();
    for (auto it = table_.begin(); it != table_.end(); ++it) {
      if (IsFinished(it->second.search)) {
        ++finished;
        if (lru == table_.end() || it->second.last_used < lru->second.last_used) {
          lru = it;
        }
      }
    }
    // At most capacity_ entries were finished before this one.
    if (finished > capacity_) {
      table_.erase(lru);
      ++counts_.cache.evictions;
    }
  }
  // Outside the lock: a coalesced query waits here for the search it joined. Safe on a
  // PlanMany pool lane too: that search is already running on its own thread, and the
  // query that runs it never waits on a key.
  result.search = search.get();
  return result;
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
  // its result (the batch-level form of coalescing).
  std::unordered_map<PlannerQuery, std::vector<size_t>, KeyHash> groups;
  for (size_t i = 0; i < queries.size(); ++i) {
    groups[KeyFor(queries[i])].push_back(i);
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
      results[index] = Plan(queries[index]).value();  // validated above
    }
  };
  const int64_t lanes = pool_ != nullptr ? pool_->num_threads() : 1;
  const int64_t workers = std::min(total, lanes);
  if (workers <= 1) {
    plan_range(0, total);
  } else {
    pool_->ParallelFor(total, (total + workers - 1) / workers, plan_range);
  }
  const uint64_t duplicates = queries.size() - representatives.size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    counts_.queries += duplicates;
    counts_.coalesced += duplicates;
  }
  for (const auto& [key, members] : groups) {
    for (size_t m = 1; m < members.size(); ++m) {
      results[members[m]] = results[members.front()];
      results[members[m]].cache_hit = false;
      results[members[m]].coalesced = true;
    }
  }
  return results;
}

PlannerServiceStats PlannerService::stats() const {
  PlannerServiceStats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats = counts_;
    stats.cache.size = static_cast<size_t>(
        std::count_if(table_.begin(), table_.end(),
                      [](const auto& entry) { return IsFinished(entry.second.search); }));
  }
  stats.cache.capacity = capacity_;
  stats.pooled_arenas = arenas_.pooled();
  stats.total_arenas = arenas_.total();
  return stats;
}

}  // namespace parallax
