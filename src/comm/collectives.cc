#include "src/comm/collectives.h"

#include <algorithm>

#include "src/base/math.h"

namespace parallax {
namespace {

// Encodes external participant slot `slot` as a negative dep reference.
constexpr int32_t ExternalRef(int slot) { return -1 - slot; }

int32_t AddOp(SchedulePlan& plan, TaskKind kind, int src, int dst, int64_t bytes,
              double seconds, std::span<const int32_t> refs) {
  SchedulePlan::Op op;
  op.kind = kind;
  op.src = src;
  op.dst = dst;
  op.bytes = bytes;
  op.seconds = seconds;
  op.deps_begin = static_cast<int32_t>(plan.dep_refs.size());
  op.deps_count = static_cast<int32_t>(refs.size());
  plan.dep_refs.insert(plan.dep_refs.end(), refs.begin(), refs.end());
  plan.ops.push_back(op);
  return static_cast<int32_t>(plan.ops.size()) - 1;
}

int32_t PlanTransfer(SchedulePlan& plan, int src, int dst, int64_t bytes,
                     std::span<const int32_t> refs) {
  return AddOp(plan, TaskKind::kTransfer, src, dst, bytes, 0.0, refs);
}

int32_t PlanLocalTransfer(SchedulePlan& plan, int machine, int64_t bytes,
                          std::span<const int32_t> refs) {
  return AddOp(plan, TaskKind::kLocalTransfer, machine, 0, bytes, 0.0, refs);
}

int32_t PlanBarrier(SchedulePlan& plan, std::span<const int32_t> refs) {
  return AddOp(plan, TaskKind::kBarrier, 0, 0, 0, 0.0, refs);
}

// Applies the per-step overhead to a transfer op; returns the ref marking chunk
// arrival. The overhead rides the transfer task as a post-completion delay (it never
// occupies the links), so no separate delay task is emitted per ring step.
int32_t WithOverhead(SchedulePlan& plan, int32_t transfer, const CollectiveOptions& options) {
  if (options.step_overhead > 0.0) {
    plan.ops[static_cast<size_t>(transfer)].seconds = options.step_overhead;
  }
  return transfer;
}

// The reduce-scatter half of a ring over the machines `slots`, gated by dep_refs:
// step s, participant i sends chunk (i-s) mod n to i+1, and after n-1 steps participant
// i holds the fully reduced chunk (i+1) mod n; owned[i] is the ref gating that
// ownership. The receiver folds its own contribution into the incoming chunk, so every
// arrival also gates on the receiver's dependency. Chunk c has
// BalancedSplitSize(bytes, n, c) bytes.
void EmitRingReduceScatter(SchedulePlan& plan, std::span<const int> slots,
                           std::span<const int32_t> dep_refs, int64_t bytes,
                           const CollectiveOptions& options, std::vector<int32_t>& owned) {
  const int n = static_cast<int>(dep_refs.size());
  owned.assign(dep_refs.begin(), dep_refs.end());
  std::vector<int32_t> arrival(static_cast<size_t>(n), -1);
  for (int s = 0; s <= n - 2; ++s) {
    for (int i = 0; i < n; ++i) {
      int chunk = PosMod(i - s, n);
      int recv = PosMod(i + 1, n);
      int32_t send_refs[] = {owned[static_cast<size_t>(i)]};
      int32_t transfer = PlanTransfer(plan, slots[static_cast<size_t>(i)],
                                      slots[static_cast<size_t>(recv)],
                                      BalancedSplitSize(bytes, n, chunk), send_refs);
      int32_t arrived = WithOverhead(plan, transfer, options);
      int32_t gate_refs[] = {arrived, dep_refs[static_cast<size_t>(recv)]};
      arrival[static_cast<size_t>(recv)] = PlanBarrier(plan, gate_refs);
    }
    std::swap(owned, arrival);
  }
}

// The allgather half: participant i starts owning chunk (i+1) mod n (gated by owned[i])
// and after n-1 forwarding steps holds all n chunks; done[i] is the ref after which
// participant i is complete.
void EmitRingAllGather(SchedulePlan& plan, std::span<const int> slots,
                       std::span<const int32_t> owned, int64_t bytes,
                       const CollectiveOptions& options, std::vector<int32_t>& done) {
  const int n = static_cast<int>(owned.size());
  std::vector<int32_t> prev_arrival(owned.begin(), owned.end());
  std::vector<int32_t> arrival(static_cast<size_t>(n), -1);
  for (int s = 0; s <= n - 2; ++s) {
    for (int i = 0; i < n; ++i) {
      int chunk = PosMod(i + 1 - s, n);
      int next = PosMod(i + 1, n);
      int32_t send_refs[] = {prev_arrival[static_cast<size_t>(i)]};
      int32_t transfer = PlanTransfer(plan, slots[static_cast<size_t>(i)],
                                      slots[static_cast<size_t>(next)],
                                      BalancedSplitSize(bytes, n, chunk), send_refs);
      arrival[static_cast<size_t>(next)] = WithOverhead(plan, transfer, options);
    }
    std::swap(prev_arrival, arrival);
  }
  done.assign(prev_arrival.begin(), prev_arrival.end());
}

SchedulePlan BuildAllReducePlan(const RankLayout& layout, int num_racks, int64_t bytes,
                                const CollectiveOptions& options) {
  const int num_machines = layout.num_machines;
  PX_CHECK_GE(num_racks, 1);
  PX_CHECK_EQ(num_machines % num_racks, 0)
      << "racks must partition the machines evenly";
  const int per_rack = num_machines / num_racks;
  const int num_ranks = layout.num_ranks();
  SchedulePlan plan;
  plan.num_participants = num_ranks;
  plan.done_refs.resize(static_cast<size_t>(num_ranks));

  // Phase 1: intra-machine reduce onto each machine's lead GPU, over PCIe.
  std::vector<int32_t> machine_ready(static_cast<size_t>(num_machines), -1);
  std::vector<int32_t> local_refs(static_cast<size_t>(layout.gpus_per_machine));
  for (int m = 0; m < num_machines; ++m) {
    for (int g = 0; g < layout.gpus_per_machine; ++g) {
      local_refs[static_cast<size_t>(g)] = ExternalRef(layout.RankOf(m, g));
    }
    if (layout.gpus_per_machine > 1) {
      machine_ready[static_cast<size_t>(m)] = PlanLocalTransfer(plan, m, bytes, local_refs);
    } else {
      machine_ready[static_cast<size_t>(m)] = PlanBarrier(plan, local_refs);
    }
  }

  // Phase 2: ring reduce-scatter inside each rack. Afterwards the machine with local
  // index j in rack r owns the rack-reduced chunk (j+1) mod per_rack.
  std::vector<int32_t> owned = machine_ready;
  std::vector<int> slots(static_cast<size_t>(per_rack));
  std::vector<int32_t> rack_deps(static_cast<size_t>(per_rack));
  std::vector<int32_t> rack_out;
  for (int r = 0; r < num_racks; ++r) {
    for (int j = 0; j < per_rack; ++j) {
      slots[static_cast<size_t>(j)] = r * per_rack + j;
      rack_deps[static_cast<size_t>(j)] = machine_ready[static_cast<size_t>(r * per_rack + j)];
    }
    EmitRingReduceScatter(plan, slots, rack_deps, bytes, options, rack_out);
    for (int j = 0; j < per_rack; ++j) {
      owned[static_cast<size_t>(r * per_rack + j)] = rack_out[static_cast<size_t>(j)];
    }
  }

  // Phase 3, racked clusters only: one cross-rack ring AllReduce per chunk, among each
  // rack's owner of that chunk — the only transfers that leave a rack, so each spine
  // link carries exactly one (R-1)/R-scaled pass per direction per chunk.
  std::vector<int32_t> global_owned = owned;
  if (num_racks > 1) {
    std::vector<int> ring_slots(static_cast<size_t>(num_racks));
    std::vector<int32_t> ring_deps(static_cast<size_t>(num_racks));
    std::vector<int32_t> ring_owned;
    std::vector<int32_t> ring_done;
    for (int c = 0; c < per_rack; ++c) {
      const int j = PosMod(c - 1, per_rack);  // local index of chunk c's owner
      for (int r = 0; r < num_racks; ++r) {
        ring_slots[static_cast<size_t>(r)] = r * per_rack + j;
        ring_deps[static_cast<size_t>(r)] = owned[static_cast<size_t>(r * per_rack + j)];
      }
      const int64_t chunk_bytes = BalancedSplitSize(bytes, per_rack, c);
      EmitRingReduceScatter(plan, ring_slots, ring_deps, chunk_bytes, options, ring_owned);
      EmitRingAllGather(plan, ring_slots, ring_owned, chunk_bytes, options, ring_done);
      for (int r = 0; r < num_racks; ++r) {
        global_owned[static_cast<size_t>(r * per_rack + j)] =
            ring_done[static_cast<size_t>(r)];
      }
    }
  }

  // Phase 4: ring allgather inside each rack rebuilds the full buffer on every machine.
  std::vector<int32_t> machine_done = global_owned;
  for (int r = 0; r < num_racks; ++r) {
    for (int j = 0; j < per_rack; ++j) {
      slots[static_cast<size_t>(j)] = r * per_rack + j;
      rack_deps[static_cast<size_t>(j)] = global_owned[static_cast<size_t>(r * per_rack + j)];
    }
    EmitRingAllGather(plan, slots, rack_deps, bytes, options, rack_out);
    for (int j = 0; j < per_rack; ++j) {
      machine_done[static_cast<size_t>(r * per_rack + j)] = rack_out[static_cast<size_t>(j)];
    }
  }

  // Phase 5: intra-machine broadcast back to all GPUs.
  for (int m = 0; m < num_machines; ++m) {
    int32_t broadcast = machine_done[static_cast<size_t>(m)];
    if (layout.gpus_per_machine > 1) {
      int32_t refs[] = {machine_done[static_cast<size_t>(m)]};
      broadcast = PlanLocalTransfer(plan, m, bytes, refs);
    }
    for (int g = 0; g < layout.gpus_per_machine; ++g) {
      plan.done_refs[static_cast<size_t>(layout.RankOf(m, g))] = broadcast;
    }
  }
  return plan;
}

SchedulePlan BuildRankRingAllGathervPlan(const RankLayout& layout,
                                         std::span<const int64_t> bytes_per_rank,
                                         const CollectiveOptions& options) {
  const int r_count = layout.num_ranks();
  PX_CHECK_EQ(bytes_per_rank.size(), static_cast<size_t>(r_count));
  SchedulePlan plan;
  plan.num_participants = r_count;

  // Step s: rank r forwards block (r-s) mod n to rank r+1.
  std::vector<int32_t> prev_arrival(static_cast<size_t>(r_count), -1);
  for (int r = 0; r < r_count; ++r) {
    prev_arrival[static_cast<size_t>(r)] = ExternalRef(r);
  }
  std::vector<int32_t> arrival(static_cast<size_t>(r_count), -1);
  for (int s = 0; s <= r_count - 2; ++s) {
    for (int r = 0; r < r_count; ++r) {
      int block = PosMod(r - s, r_count);
      int next = PosMod(r + 1, r_count);
      int32_t send_refs[] = {prev_arrival[static_cast<size_t>(r)]};
      int src_machine = layout.MachineOfRank(r);
      int dst_machine = layout.MachineOfRank(next);
      int64_t block_bytes = bytes_per_rank[static_cast<size_t>(block)];
      int32_t transfer =
          src_machine == dst_machine
              ? PlanLocalTransfer(plan, src_machine, block_bytes, send_refs)
              : PlanTransfer(plan, src_machine, dst_machine, block_bytes, send_refs);
      arrival[static_cast<size_t>(next)] = WithOverhead(plan, transfer, options);
    }
    std::swap(prev_arrival, arrival);
  }

  // Each rank is done at its last arrival. A single rank receives nothing: its
  // completion is a barrier on its own readiness.
  if (r_count == 1) {
    int32_t refs[] = {ExternalRef(0)};
    plan.done_refs.push_back(PlanBarrier(plan, refs));
  } else {
    plan.done_refs = prev_arrival;
  }
  return plan;
}

SchedulePlan BuildBroadcastAllGathervPlan(const RankLayout& layout, int64_t block_bytes,
                                          int64_t inflated_bytes) {
  const int num_ranks = layout.num_ranks();
  PX_CHECK_GT(num_ranks, 0);
  SchedulePlan plan;
  plan.num_participants = num_ranks;

  // Transfers source-major; arrival_ref[dst][src] collects the per-destination fan-in
  // so each gate barrier lists its senders in ascending order.
  std::vector<int32_t> arrival_ref(
      static_cast<size_t>(num_ranks) * static_cast<size_t>(num_ranks), -1);
  for (int src = 0; src < num_ranks; ++src) {
    for (int dst = 0; dst < num_ranks; ++dst) {
      if (src == dst) {
        continue;
      }
      const int src_m = layout.MachineOfRank(src);
      const int dst_m = layout.MachineOfRank(dst);
      int32_t dep[] = {ExternalRef(src)};
      int32_t xfer = src_m == dst_m
                         ? PlanLocalTransfer(plan, src_m, block_bytes, dep)
                         : PlanTransfer(plan, src_m, dst_m, inflated_bytes, dep);
      arrival_ref[static_cast<size_t>(dst) * static_cast<size_t>(num_ranks) +
                  static_cast<size_t>(src)] = xfer;
    }
  }
  std::vector<int32_t> refs;
  refs.reserve(static_cast<size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    refs.clear();
    for (int src = 0; src < num_ranks; ++src) {
      int32_t ref = arrival_ref[static_cast<size_t>(r) * static_cast<size_t>(num_ranks) +
                                static_cast<size_t>(src)];
      if (ref >= 0) {
        refs.push_back(ref);
      }
    }
    refs.push_back(ExternalRef(r));  // the rank's own readiness gates last
    plan.done_refs.push_back(PlanBarrier(plan, refs));
  }
  return plan;
}

}  // namespace

void CollectiveScheduleCache::Instantiate(const SchedulePlan& plan, TaskGraph& graph,
                                          std::span<const TaskId> deps,
                                          CollectiveSchedule* out) const {
  PX_CHECK_EQ(deps.size(), static_cast<size_t>(plan.num_participants));
  std::vector<TaskId>& ids = task_of_op_;
  ids.clear();
  for (const SchedulePlan::Op& op : plan.ops) {
    dep_buf_.clear();
    for (int32_t k = 0; k < op.deps_count; ++k) {
      int32_t ref = plan.dep_refs[static_cast<size_t>(op.deps_begin + k)];
      TaskId dep = ref >= 0 ? ids[static_cast<size_t>(ref)] : deps[static_cast<size_t>(-1 - ref)];
      if (dep != kNoTask) {
        dep_buf_.push_back(dep);
      }
    }
    TaskId id = kNoTask;
    std::span<const TaskId> dep_span(dep_buf_);
    switch (op.kind) {
      case TaskKind::kTransfer:
        id = graph.AddTransfer(op.src, op.dst, op.bytes, dep_span, op.seconds);
        break;
      case TaskKind::kLocalTransfer:
        id = graph.AddLocalTransfer(op.src, op.bytes, dep_span, op.seconds);
        break;
      case TaskKind::kBarrier:
        id = graph.AddBarrier(dep_span);
        break;
      default:
        PX_CHECK(false) << "unsupported plan op kind";
    }
    ids.push_back(id);
  }

  out->done.clear();
  out->done.reserve(plan.done_refs.size());
  for (int32_t ref : plan.done_refs) {
    out->done.push_back(ids[static_cast<size_t>(ref)]);
  }
}

size_t CollectiveScheduleCache::KeyHash::operator()(const Key& key) const {
  uint64_t hash = kFnvOffsetBasis;
  auto mix = [&hash](uint64_t value) {
    hash ^= value + 0x9e3779b97f4a7c15ull + (hash << 6) + (hash >> 2);
  };
  mix(key.kind);
  mix(static_cast<uint64_t>(key.machines));
  mix(static_cast<uint64_t>(key.gpus));
  mix(static_cast<uint64_t>(key.racks));
  mix(static_cast<uint64_t>(key.bytes));
  mix(key.blocks_hash);
  mix(DoubleBits(key.overhead));
  return static_cast<size_t>(hash);
}

template <typename BuildFn>
const SchedulePlan& CollectiveScheduleCache::Lookup(Key key, std::span<const int64_t> blocks,
                                                    BuildFn&& build) {
  for (;;) {
    auto it = plans_.find(key);
    if (it == plans_.end()) {
      ++misses_;
      SchedulePlan plan = build();
      plan.key_blocks.assign(blocks.begin(), blocks.end());
      return plans_.emplace(key, std::move(plan)).first->second;
    }
    const std::vector<int64_t>& stored = it->second.key_blocks;
    if (std::equal(blocks.begin(), blocks.end(), stored.begin(), stored.end())) {
      ++hits_;
      return it->second;
    }
    // Fingerprint collision between distinct block vectors: probe the next hash slot.
    ++key.blocks_hash;
  }
}

const SchedulePlan& CollectiveScheduleCache::AllReduce(const RankLayout& layout, int num_racks,
                                                       int64_t bytes,
                                                       const CollectiveOptions& options) {
  Key key;
  key.kind = 1;
  key.machines = layout.num_machines;
  key.gpus = layout.gpus_per_machine;
  key.racks = num_racks;
  key.bytes = bytes;
  key.overhead = options.step_overhead;
  return Lookup(key, {}, [&] { return BuildAllReducePlan(layout, num_racks, bytes, options); });
}

const SchedulePlan& CollectiveScheduleCache::RankRingAllGatherv(
    const RankLayout& layout, std::span<const int64_t> bytes_per_rank,
    const CollectiveOptions& options) {
  Key key;
  key.kind = 2;
  key.machines = layout.num_machines;
  key.gpus = layout.gpus_per_machine;
  key.blocks_hash = Fnv64(bytes_per_rank);
  key.overhead = options.step_overhead;
  return Lookup(key, bytes_per_rank,
                [&] { return BuildRankRingAllGathervPlan(layout, bytes_per_rank, options); });
}

const SchedulePlan& CollectiveScheduleCache::BroadcastAllGatherv(const RankLayout& layout,
                                                                 int64_t block_bytes,
                                                                 int64_t inflated_bytes) {
  const int64_t blocks[] = {block_bytes, inflated_bytes};
  Key key;
  key.kind = 3;
  key.machines = layout.num_machines;
  key.gpus = layout.gpus_per_machine;
  key.blocks_hash = Fnv64(blocks);
  return Lookup(key, blocks, [&] {
    return BuildBroadcastAllGathervPlan(layout, block_bytes, inflated_bytes);
  });
}

}  // namespace parallax
