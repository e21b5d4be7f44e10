// Unified per-iteration timing simulation for every synchronization architecture.
//
// One synchronous training iteration is described as a task DAG over the simulated
// cluster (sim/task_graph.h):
//
//   pulls (PS variables) ──▶ forward chunks ──▶ backward chunks ──▶ per-variable sync
//                                                                    │
//     PS path: push → accumulator chain (serial per shard) → update op on the server
//     AR path: AllReduce (dense) / AllGatherv (sparse), comm/collectives.h → GPU apply
//
// Because each variable carries its own SyncMethod, the PS-only (TF-PS), AR-only
// (Horovod) and hybrid (Parallax) architectures are all instances of the same builder —
// exactly the framing of the paper's section 3.1/4.3: the hybrid graph is the composition
// of the per-variable-kind transformation rules.
//
// What emerges mechanistically (nothing here is closed-form):
//  - PS incast at the owning server's NIC (section 3.1's asymmetry argument),
//  - serialization of sparse gradient accumulation per shard — the cost that
//    partitioning parallelizes (section 3.2),
//  - per-partition overheads (requests, bookkeeping, stitch) — the theta2 * P term,
//  - communication/computation overlap from chunked forward/backward,
//  - ring pipelining and the N-1/N factors of Table 3 (validated by bench_table3).
#ifndef PARALLAX_SRC_CORE_ITERATION_SIM_H_
#define PARALLAX_SRC_CORE_ITERATION_SIM_H_

#include <memory>
#include <vector>

#include "src/base/status.h"
#include "src/comm/collectives.h"
#include "src/core/sync_engine.h"
#include "src/models/calibration.h"
#include "src/models/model_spec.h"
#include "src/sim/cluster.h"
#include "src/sim/task_graph.h"

namespace parallax {

// SyncMethod / GathervAlgorithm / VariableSync — the per-variable synchronization
// vocabulary this simulator consumes — live in src/core/sync_engine.h with the engine
// interface, so the numeric engines can implement the seam without including the
// simulator.

struct IterationSimConfig {
  // OptPS: aggregate gradients within each machine before pushing (one push per machine
  // instead of one per GPU) — paper's local aggregation.
  bool ps_local_aggregation = false;
  // OptPS: pull each shard once per machine and broadcast locally over PCIe, instead of
  // once per GPU worker — paper's smart placement of read operations.
  bool ps_machine_level_pulls = false;
  GathervAlgorithm gatherv_algorithm = GathervAlgorithm::kBroadcast;
  // Account 8 bytes/row of index traffic for sparse transfers (the paper's analysis
  // neglects it; Table 3 validation turns it off).
  bool include_index_bytes = true;
  SyncCostParams costs;

  bool operator==(const IterationSimConfig& other) const = default;
};

// Reusable simulation state: the task-graph arena, the collective schedule cache, and
// every DAG-construction scratch table. One arena serves any number of simulators in
// sequence — the partition search constructs a fresh IterationSimulator per sampled P
// but passes the same arena, so cached schedules and task storage persist across the
// whole search and the steady-state iteration performs zero heap allocations
// (tests/sim_steady_state_test.cc).
//
// Thread-ownership contract: NOT thread-safe — every member below is shared mutable
// state owned by exactly one simulating thread at a time, with no internal locking.
// Concurrent simulations take one arena each (the PlannerService's arena pool hands
// them out RAII-style, src/service/planner_service.h); handing an arena to another
// thread requires external synchronization for the transfer and exclusive use after.
struct SimulationArena {
  TaskGraph graph;                  // owned by the simulating thread; rebuilt/executed in place
  CollectiveScheduleCache schedules;  // owned by the simulating thread; grows monotonically

  // DAG build cache bookkeeping: which simulator's iteration DAG currently occupies
  // `graph`, and a serial stamped on every rebuild. A simulator's iteration DAG depends
  // only on its (variables, config, layout), all fixed at construction, so re-simulating
  // with the same simulator skips the rebuild entirely and goes straight to Execute
  // (see IterationSimulator::SimulateIteration).
  const void* built_by = nullptr;  // owned by the simulating thread (cache tag, see above)
  uint64_t build_serial = 0;       // owned by the simulating thread (cache tag, see above)

  // SimulateIteration scratch (iteration_sim.cc). avail/gate/chunk are the rank-major
  // DAG tables; the rest are small per-phase staging buffers. All owned by the
  // simulating thread: overwritten by every build, valid only within one
  // SimulateIteration.
  std::vector<std::vector<TaskId>> avail;     // [rank][shard]; per-build scratch
  std::vector<std::vector<TaskId>> gate;      // [rank][variable]; per-build scratch
  std::vector<std::vector<TaskId>> chunk;     // [rank][chunk]; per-build scratch
  std::vector<TaskId> end_tasks;              // per-build scratch
  std::vector<TaskId> deps;                   // per-build scratch
  std::vector<TaskId> collective_deps;        // per-build scratch
  std::vector<TaskId> local_deps;             // per-build scratch
  std::vector<int64_t> blocks;                // per-build scratch
  std::vector<size_t> var_shards;             // per-build scratch
  CollectiveSchedule schedule;                // per-collective replay target
};

// What the timing plane needs to simulate an iteration without aborting, checked once
// for every caller that takes these inputs from outside (ValidatePlannerQuery,
// RunnerBuilder::Build):
//   - the cluster: num_machines, gpus_per_machine and cores_per_machine >= 1; NIC,
//     PCIe and spine bandwidths > 0 and latencies >= 0 (the spine's on a flat cluster
//     too); on more than one rack, the racks divide the machines evenly;
//   - gpu_compute_seconds and every seconds-valued or factor-valued `costs` constant
//     finite and >= 0.
// Returns InvalidArgument naming the first rule broken.
Status ValidateTimingInputs(const ClusterSpec& cluster, double gpu_compute_seconds,
                            const SyncCostParams& costs);

// The effective server machine of every PS shard in `variables` (in variable order,
// pieces ascending): piece p of a variable with a matching-length placement vector
// lives on placement[p]; every other shard follows the historical round-robin, whose
// counter advances for EVERY shard so placing one variable never shifts another's
// assignment. This is the single shard-ownership rule — the iteration simulator builds
// its DAG from it, TransformGraph places its piece ops by it, and the runner's
// migration estimate replays it.
std::vector<int> ResolveShardServers(std::span<const VariableSync> variables,
                                     int num_machines);

class IterationSimulator {
 public:
  // With a null `arena` the simulator owns a private one; passing a shared arena lets
  // many short-lived simulators (one per partition-search sample) reuse one set of
  // buffers and one schedule cache.
  IterationSimulator(const ClusterSpec& cluster_spec, std::vector<VariableSync> variables,
                     double gpu_compute_seconds, int compute_chunks,
                     IterationSimConfig config, SimulationArena* arena = nullptr);

  // Builds (or reuses) and executes one iteration DAG from `start_time` on `cluster`,
  // and returns the iteration barrier's finish. Every task is an ancestor of the
  // barrier, and a task never finishes before its parents, so no resource is busy past
  // the returned time (checked on every call): the barrier drains the cluster, nothing
  // pipelines across it, and the next call runs as it would on a fresh cluster from its
  // start time. Only the cluster's accounting totals (bytes moved, busy seconds)
  // accumulate across calls.
  SimTime SimulateIteration(Cluster& cluster, SimTime start_time);

  // Runs `iterations` iterations on a fresh cluster; returns each iteration's duration.
  std::vector<double> RunIterations(int iterations);

  // The simulated time of one iteration: the first on a fresh cluster, from t = 0.
  // The barrier drains the cluster, so a later iteration depends on nothing but its
  // start time, and one simulated iteration prices a layout where the paper's profiler
  // averages 50 of 100 measured ones (section 3.2). A later start only adds rounding:
  // about 1e-14 relative, or a few percent where the rounding breaks an exact tie
  // between two ready tasks the other way (sim_steady_state_test). From t = 0 such
  // ties keep the insertion order the event loop breaks them by.
  double MeasureIterationSeconds();

  const ClusterSpec& cluster_spec() const { return cluster_spec_; }

 private:
  // A PS shard: one partition of one PS variable, owned by one server machine.
  struct Shard {
    int var = 0;           // index into variables_
    int piece = 0;         // partition index within the variable
    int server = 0;        // owning machine
    int64_t elements = 0;  // elements stored in this piece
  };

  int64_t PullBytesPerWorker(const Shard& shard) const;
  int64_t SparseIndexBytes(int64_t touched_elements, int64_t row_elements) const;

  // Push-side cost plane, honoring the variable's CompressionSpec (pulls always move
  // uncompressed values — forward passes need full precision rows, so only the helpers
  // below diverge from the pull path). With kind == kNone every helper reduces exactly
  // to the historical uncompressed expression, so uncompressed simulations build
  // bit-identical task graphs.
  //
  // Fraction of a sparse shard's elements one worker ships after compression
  // (kTopK: alpha * ratio; otherwise alpha).
  double PushAlpha(const VariableSync& sync) const;
  // Wire bytes for `touched` sparse elements pushed under the variable's compression
  // (kInt8: 1 byte/element + a 4-byte scale per row; otherwise 4 bytes/element).
  int64_t SparseWireBytes(const VariableSync& sync, int64_t touched) const;
  // Wire bytes one worker pushes for this shard (dense or sparse, compressed).
  int64_t PushBytesPerWorker(const Shard& shard) const;
  // Worker-side select/quantize cost for one rank's gradient of this shard: the
  // compression scan reads the RAW (pre-compression) support. 0 when kind == kNone —
  // no task is added, preserving task-graph identity for uncompressed plans.
  double CompressSeconds(const Shard& shard) const;

  // Rebuilds the iteration DAG for `layout` into the arena's graph and records the
  // task whose finish ends the iteration (the barrier; the apply on a single GPU).
  void BuildIterationGraph(const RankLayout& layout);

  ClusterSpec cluster_spec_;
  std::vector<VariableSync> variables_;
  double gpu_compute_seconds_;
  int compute_chunks_;
  IterationSimConfig config_;

  std::vector<Shard> shards_;
  // Per variable: the forward chunk that needs it and the backward chunk that produces
  // its gradient (global chunk indices into the per-rank compute chain).
  std::vector<int> pull_chunk_;
  std::vector<int> grad_chunk_;
  int forward_chunks_ = 1;

  SimulationArena* arena_;
  std::unique_ptr<SimulationArena> owned_arena_;

  // DAG build cache (valid while arena_->built_by == this and the serials match):
  // the finishing task to read the iteration end time from, and the layout the DAG was
  // built for (a different cluster shape forces a rebuild).
  uint64_t built_serial_ = 0;
  int built_num_machines_ = -1;
  int built_gpus_ = -1;
  TaskId final_task_ = kNoTask;
};

}  // namespace parallax

#endif  // PARALLAX_SRC_CORE_ITERATION_SIM_H_
