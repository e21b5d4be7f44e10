// PlannerService: a process-wide, thread-safe partition-planning front-end shared by
// any number of GraphRunners — the multi-tenant counterpart of the runner's private
// search path (ROADMAP "Multi-tenant training service"; docs/planner_service.md).
//
// Three mechanisms make many concurrent tenants cheap:
//
//   1. Arena pool — SimulationArena is single-threaded state, so each query checks one
//      out RAII-style (ArenaPool::Lease, src/sim/arena_pool.h). Checkout never blocks
//      on a busy arena: the pool grows on demand and retains up to max_pooled_arenas
//      when idle, so concurrent searches are contention-free while steady-state
//      queries reuse warm task storage and collective-schedule caches.
//   2. One table of searches — a search is a deterministic function of its query, so
//      the service keys each search by the canonical query itself (Canonicalize: alphas
//      snapped to their bucket representatives, every field no search reads reset). A
//      finished search is a cache hit, returning what a fresh search at the same key
//      would, bit for bit, because searches run AT the canonical query.
//   3. Coalescing — a query whose key is still being searched waits on that search
//      instead of simulating again; PlanMany batches a whole query set, running one
//      search per distinct key across the service's shared ThreadPool and fanning
//      results back out.
//
// Every miss runs SearchPlan (below) on one leased arena, one candidate at a time —
// the same serial search a runner's private path calls — so the service and the
// private path differ only in the alphas they search at: a hit is identical to a fresh
// search at the same key, and with alpha_quantum = 0 the service answers exactly what
// the private search would. Runners opt in with RunnerBuilder::WithPlanner(service);
// the private-arena path remains the default.
#ifndef PARALLAX_SRC_SERVICE_PLANNER_SERVICE_H_
#define PARALLAX_SRC_SERVICE_PLANNER_SERVICE_H_

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/base/thread_pool.h"
#include "src/core/analysis.h"
#include "src/core/cost_model.h"
#include "src/core/iteration_sim.h"
#include "src/core/sync_engine.h"
#include "src/sim/arena_pool.h"
#include "src/sim/cluster.h"

namespace parallax {

struct PlannerServiceOptions {
  // Finished searches retained (least recently used evicted past this; at least 1).
  // Running searches are never evicted.
  size_t cache_capacity = 256;
  // Relative width of one alpha bucket: alphas within ~quantum of each other share a
  // bucket (log-space rounding, relative representative error <= quantum/2). <= 0
  // disables quantization — every distinct alpha value is its own key.
  double alpha_quantum = 0.05;
  // Arenas retained in the free pool when idle. Checkout past this still succeeds (the
  // pool grows on demand); the excess is dropped on release instead of pooled.
  size_t max_pooled_arenas = 16;
  // Lanes of the service's shared ThreadPool, which runs PlanMany's query fan-out
  // (min(distinct queries, lanes) workers, each running serial searches).
  // 0 = one lane per hardware thread (uncapped — the fan-out scales to the machine);
  // 1 = fully serial (no pool is created).
  int max_workers = 0;
};

// Everything a search outcome depends on. Runners build this with
// GraphRunner::MakePlannerQuery; standalone callers can assemble it directly. Its
// canonical form (PlannerService::KeyFor) is the service's key, compared field by field
// with the defaulted operator==: doubles compare by value, so +0 and -0 are one key.
// `variables` is the querying model as the simulator will see it (PlannerVariable,
// src/core/analysis.h): a searched plan reaches it through ApplyPlanToVariables, and
// the per-variable search's targets are derived from it (SearchTargets). `cluster` is
// what every candidate is simulated on, and the placement pass reads its topology.
struct PlannerQuery {
  std::vector<PlannerVariable> variables;
  PartitionSearchMode mode = PartitionSearchMode::kUniform;
  ClusterSpec cluster;
  IterationSimConfig sim_config;
  double gpu_compute_seconds = 0.0;
  int compute_chunks = 1;
  PartitionSearchOptions options;

  bool operator==(const PlannerQuery& other) const = default;
};

// What a query must satisfy for SearchPlan to run it without aborting. Queries are
// untrusted input, so Plan and PlanMany check this (and ValidateSearchOptions) first and
// return its InvalidArgument instead. The rules:
//   - the cluster, gpu_compute_seconds and sim_config.costs pass ValidateTimingInputs
//     (core/iteration_sim.h);
//   - at least one variable; every variable's alpha is finite and in [0, 1], its
//     num_elements, row_elements and rows are >= 1, and its compression ratio is not
//     NaN (and > 0 under top-k);
//   - a variable the plan does not control keeps partitions >= 1, and its fixed
//     placement names servers in [0, num_machines).
// compute_chunks is not checked (the simulator clamps it).
Status ValidatePlannerQuery(const PlannerQuery& query);

// The variables a per-variable query searches, in query order: each partitioned sparse
// variable, with its spec's name, alpha and size, its row count as the cap, and its
// current partitions and drift flag for a warm start. Empty for a uniform query, and
// for a per-variable query in which no variable qualifies.
std::vector<PartitionSearchVariable> SearchTargets(const PlannerQuery& query);

// The one partition search behind every planning path: a runner's private start-up,
// adaptive and rescale searches call it on the runner's own arena, and
// PlannerService runs it on a leased arena for every cache miss. Each candidate layout
// is simulated on `arena` through ApplyPlanToVariables, one at a time.
//   - With SearchTargets: SearchPartitionPlan (per-variable counts, placement when
//     options.placement is set).
//   - Without: the uniform sweep (SearchPartitions), reported as a plan search —
//     `plan` is Uniform(best P), `uniform` holds the sweep, `evaluations` is its sample
//     count, and `seconds` == `uniform_seconds` is the measured time at best P (read
//     from the sweep when it sampled best P, simulated otherwise).
// The result does not depend on the arena.
PartitionPlanSearchResult SearchPlan(const PlannerQuery& query, SimulationArena* arena);

struct PlannerResult {
  // What SearchPlan returned for the canonicalized query (searched at the
  // bucket-representative alphas).
  PartitionPlanSearchResult search;
  bool cache_hit = false;  // answered by a finished search, without simulating
  bool coalesced = false;  // shared another query's running or batched search
};

// The table of finished searches. A query that finds its key finished is a hit; one
// that finds it running or absent is a miss.
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  size_t size = 0;  // finished searches retained
  size_t capacity = 0;
};

struct PlannerServiceStats {
  PlanCacheStats cache;
  uint64_t queries = 0;    // Plan calls + PlanMany entries
  uint64_t searches = 0;   // actual simulation searches performed
  uint64_t coalesced = 0;  // queries that piggybacked on another query's search
  size_t pooled_arenas = 0;
  size_t total_arenas = 0;  // pooled + checked out
  // Always 0: every search is serial and simulates no speculative candidate. Kept for
  // the readers that still report them (pxbench's tenant metrics).
  uint64_t batched_evaluations = 0;
  uint64_t speculative_waste = 0;
};

class PlannerService {
 public:
  explicit PlannerService(PlannerServiceOptions options = {});

  // Answers one planning query: canonicalize, return the finished search at its key,
  // wait on the running one, or else search on a leased arena and keep the result.
  // Thread-safe; deterministic given the query (cache_hit/coalesced flags aside).
  // Queries are untrusted input: a query that fails ValidatePlannerQuery or whose
  // options fail ValidateSearchOptions (cost_model.h) returns InvalidArgument before
  // it is counted or searched.
  StatusOr<PlannerResult> Plan(const PlannerQuery& query);

  // Batched front-end: one search per distinct key, fanned across worker threads so a
  // batch's searches run concurrently on distinct pooled arenas; duplicate queries
  // share their representative's result. results[i] answers
  // queries[i]. Every query is validated first: one bad query returns InvalidArgument
  // naming the first bad index, and no query of the batch is counted or searched.
  StatusOr<std::vector<PlannerResult>> PlanMany(const std::vector<PlannerQuery>& queries);

  // Puts a query in the form searches run at, which is also its key: snaps every
  // variable's spec.alpha to its bucket representative, and resets what no search
  // reads — a partitioned variable's placement; its partitions, and any variable's
  // drift flag, unless the query warm-starts and the variable is a search target; and
  // kPerVariable mode when no variable is a target (it runs the uniform sweep).
  // Idempotent.
  void Canonicalize(PlannerQuery* query) const;

  // The canonical copy of `query`: its key. Two queries share a search exactly when
  // their keys are equal. Plan() does this internally; exposed so tests and tools can
  // reason about key identity.
  PlannerQuery KeyFor(const PlannerQuery& query) const;

  // Contention-free RAII checkout of a pooled SimulationArena (grows the pool on
  // demand; never blocks on a busy arena). The lease — and the service — must outlive
  // any simulator constructed over the arena; destruction returns the arena to the
  // pool.
  ArenaPool::Lease AcquireArena();

  PlannerServiceStats stats() const;
  const PlannerServiceOptions& options() const { return options_; }

 private:
  // One search of the table, running or finished; `search` is ready once it finished.
  struct Entry {
    std::shared_future<PartitionPlanSearchResult> search;
    uint64_t last_used = 0;  // tick_ when it finished or was last hit
  };
  struct KeyHash {
    size_t operator()(const PlannerQuery& key) const;
  };

  // Runs SearchPlan for a canonicalized query on a leased arena. Pure compute: takes
  // no service lock.
  PartitionPlanSearchResult Search(const PlannerQuery& query);

  const PlannerServiceOptions options_;
  const size_t capacity_;  // options_.cache_capacity, at least 1

  // The one lock of the query path. It is never held across a search: a query looks
  // up, inserts or evicts under it, then searches or waits on a future outside it.
  mutable std::mutex mu_;
  std::unordered_map<PlannerQuery, Entry, KeyHash> table_;  // guarded by mu_
  uint64_t tick_ = 0;                                       // guarded by mu_
  // Query counters; stats() fills in the rest.
  PlannerServiceStats counts_;  // guarded by mu_

  // Arena pool (internally synchronized) — checkouts never contend with the query
  // path's lock.
  ArenaPool arenas_;
  // Shared worker pool for PlanMany's fan-out. Null when options_.max_workers
  // resolves to one lane (fully serial service).
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace parallax

#endif  // PARALLAX_SRC_SERVICE_PLANNER_SERVICE_H_
