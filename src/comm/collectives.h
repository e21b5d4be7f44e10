// Collective communication schedules over the simulated cluster, mirroring the
// NCCL/OpenMPI primitives the paper builds on (section 2.1). Every collective runs over
// the ranks of a RankLayout, one schedule each:
//
//  - AllReduce: intra-machine reduce over PCIe, a ring reduce-scatter + allgather over
//    the NICs (2(N-1) steps, each moving w/N bytes per machine: the paper's 4w(N-1)/N
//    per-machine bound), intra-machine broadcast. NCCL's topology-aware composition,
//    which is what makes "N" in the ring formulas the machine count rather than the GPU
//    count. On a racked cluster the NIC ring runs inside each rack and one cross-rack
//    ring per chunk rides the spine.
//  - Rank-ring AllGatherv: (N-1) steps, each rank forwarding one participant's block
//    (the 2*alpha*w*(N-1) bound for sparse gradients).
//  - Broadcast AllGatherv: every rank ships its block to every other rank (OpenMPI's
//    choice for small blocks).
//
// The schedules only *schedule* (emit tasks); the numeric payload semantics live in
// reduce.h so that at-paper-scale benches can run cost-only while correctness tests push
// real tensors through identical schedules.
//
// A schedule for a fixed (collective, layout, bytes, overhead) tuple is deterministic,
// so the CollectiveScheduleCache builds it once as a SchedulePlan and replays it into
// each iteration's TaskGraph: the partition search simulates thousands of iterations,
// and after the first one every collective is an allocation-free copy of a cached plan.
#ifndef PARALLAX_SRC_COMM_COLLECTIVES_H_
#define PARALLAX_SRC_COMM_COLLECTIVES_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/sim/cluster.h"
#include "src/sim/task_graph.h"

namespace parallax {

struct CollectiveOptions {
  // Fixed per-step launch overhead (kernel launch + protocol), seconds.
  double step_overhead = 25e-6;
};

struct CollectiveSchedule {
  // Completion task per rank.
  std::vector<TaskId> done;
};

// A dependency-resolved recipe for one collective's task DAG, independent of the graph
// it will be emitted into. Ops reference dependencies either plan-locally (earlier ops)
// or as external rank slots resolved at instantiation time; machines are physical
// machine numbers. Built and owned by a CollectiveScheduleCache.
struct SchedulePlan {
  struct Op {
    TaskKind kind = TaskKind::kBarrier;
    int32_t src = 0;  // kTransfer: sender machine; others: the machine
    int32_t dst = 0;  // kTransfer only: receiver machine
    int64_t bytes = 0;
    double seconds = 0.0;
    int32_t deps_begin = 0;
    int32_t deps_count = 0;
  };

  std::vector<Op> ops;
  // Dep references: >= 0 is a plan-local op index, < 0 encodes external slot ~ref.
  std::vector<int32_t> dep_refs;
  std::vector<int32_t> done_refs;  // per rank, op index of its completion task
  int num_participants = 0;
  // Exact key payload for block-vector-keyed collectives (collision verification).
  std::vector<int64_t> key_blocks;
};

// Keyed plan cache + replay scratch: the one way to schedule a collective. Each lookup
// returns the plan for its arguments, built on the first request; Instantiate replays
// it. Single-threaded (one per simulation arena).
class CollectiveScheduleCache {
 public:
  // AllReduce over every rank of `layout`, moving `bytes` per rank replica, with the
  // machines grouped into `num_racks` equal racks (machine-major: machines
  // [r*M/R, (r+1)*M/R) form rack r). Phases: intra-machine reduce (PCIe), ring
  // reduce-scatter inside each rack (NIC), then, only when num_racks > 1, one
  // cross-rack ring AllReduce per reduced chunk among the racks' owners of that chunk
  // (the only transfers that ride the spine, each crossing every spine link once per
  // direction per step), ring allgather inside each rack, intra-machine broadcast. Per
  // spine link this moves ~2*(R-1)/R * bytes versus a machine-major ring's
  // ~2*(M-1)/M * bytes: the win under spine oversubscription. Requires num_racks >= 1
  // and num_machines % num_racks == 0.
  const SchedulePlan& AllReduce(const RankLayout& layout, int num_racks, int64_t bytes,
                                const CollectiveOptions& options);
  // Ring AllGatherv across every rank of `layout` (the OpenMPI-style rank-level ring the
  // paper inevitably uses for sparse gradients, section 6.1). Adjacent same-machine
  // ranks exchange over PCIe; machine-boundary hops cross the NICs. bytes_per_rank[r]
  // is rank r's block size.
  const SchedulePlan& RankRingAllGatherv(const RankLayout& layout,
                                         std::span<const int64_t> bytes_per_rank,
                                         const CollectiveOptions& options);
  // Broadcast-style AllGatherv over every rank of `layout`: every rank ships its block
  // to every other rank; cross-machine hops carry `inflated_bytes`, intra-machine hops
  // `block_bytes`. All transfers source-major, then one gate barrier per rank whose own
  // readiness dep comes last.
  const SchedulePlan& BroadcastAllGatherv(const RankLayout& layout, int64_t block_bytes,
                                          int64_t inflated_bytes);

  // Replays `plan` into `graph`. deps[r] gates rank r's contribution (kNoTask = ready at
  // start). Fills out->done, reusing its capacity. Logically read-only (the plan set is
  // untouched); the replay scratch it reuses is `mutable` state of the owning arena's
  // thread, like everything else here — see the thread-ownership contract below.
  void Instantiate(const SchedulePlan& plan, TaskGraph& graph, std::span<const TaskId> deps,
                   CollectiveSchedule* out) const;

  size_t size() const { return plans_.size(); }
  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }

 private:
  struct Key {
    uint8_t kind = 0;
    int32_t machines = 0;
    int32_t gpus = 0;            // gpus per machine
    int32_t racks = 0;           // AllReduce only
    int64_t bytes = 0;           // scalar payload (0 for block-vector collectives)
    uint64_t blocks_hash = 0;    // fingerprint of the block vector (0 otherwise)
    double overhead = 0.0;

    bool operator==(const Key& other) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };

  template <typename BuildFn>
  const SchedulePlan& Lookup(Key key, std::span<const int64_t> blocks, BuildFn&& build);

  // Thread-ownership contract: every member below is owned by the one thread driving
  // the enclosing SimulationArena — no internal locking anywhere in this class.
  std::unordered_map<Key, SchedulePlan, KeyHash> plans_;  // owned by the arena's thread
  // Replay scratch (plan-local op index -> emitted TaskId, and a dependency staging
  // buffer), reused (and mutated) by const Instantiate so replay allocates nothing.
  mutable std::vector<TaskId> task_of_op_;
  mutable std::vector<TaskId> dep_buf_;
  size_t hits_ = 0;    // owned by the arena's thread
  size_t misses_ = 0;  // owned by the arena's thread
};

}  // namespace parallax

#endif  // PARALLAX_SRC_COMM_COLLECTIVES_H_
