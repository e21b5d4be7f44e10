// PartitionPlan — the partition layout as a first-class value.
//
// Parallax's core observation is that the right sharding of a sparse variable depends
// on *that variable's* access pattern: a hot embedding whose workers hammer a few rows
// wants few pieces (per-piece overhead dominates), while a near-dense table whose
// aggregated gradient touches most rows wants many (accumulator serialization
// dominates). One global partition count cannot express that, so every layer that
// decides, simulates, or applies a layout passes a PartitionPlan instead:
//
//   search  — SearchPartitionPlan (core/cost_model.h) produces one by per-variable
//             coordinate descent over the simulated clock,
//   assign  — AssignGraphVariables (core/analysis.h) stamps plan.For(name) onto each
//             partitioner-scoped PS variable (row-capped),
//   apply   — the timing plane (IterationSimulator, TransformGraph, the migration
//             charge) splits shards from the per-variable counts the SyncPlan
//             carries, and GraphRunner::Repartition(plan) swaps layouts
//             mid-training. A layout never changes values, so the numeric engines
//             hold each variable whole.
//
// A plan is a default count plus per-variable overrides keyed by variable *name*
// (names are the stable identity across Graph, SyncPlan, and the cost model's
// VariableSpec). It is the only way to set or read a layout; Uniform(p) gives every
// variable p pieces (ParallaxConfig::manual_plan defaults to Uniform(1)).
#ifndef PARALLAX_SRC_CORE_PARTITION_PLAN_H_
#define PARALLAX_SRC_CORE_PARTITION_PLAN_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace parallax {

// The structural gate every applier of a partition count shares: a variable cannot
// have more pieces than rows, and never fewer than one. The assigner, the runner's
// re-partitioner, and the framework baselines all go through this one function — if
// any of them gated differently, the simulator would time a layout the plan never
// names.
inline int RowCappedPartitions(int requested, int64_t rows) {
  return static_cast<int>(
      std::min<int64_t>(std::max<int64_t>(rows, 1), std::max(requested, 1)));
}

class PartitionPlan {
 public:
  PartitionPlan() = default;

  // The uniform-P convenience constructor: every variable gets `partitions` pieces.
  static PartitionPlan Uniform(int partitions);

  // Sets the partition count for one variable (by name). Overrides win over the
  // default; setting a variable twice keeps the last value.
  void Set(const std::string& variable, int partitions);

  // The partition count this plan assigns to `variable`: its override if one exists,
  // the default otherwise. Callers apply their own structural gates on top (row caps,
  // partitioner scope) — the plan stores intent, not feasibility.
  int For(const std::string& variable) const;

  // Count every variable without an override gets.
  int default_partitions() const { return default_partitions_; }
  void set_default_partitions(int partitions);

  // Per-variable overrides, ordered by name (deterministic iteration).
  const std::map<std::string, int>& overrides() const { return overrides_; }

  // Sets the shard placement for one variable: placement[p] is the server machine
  // hosting piece p. An empty vector clears the entry (back to round-robin). Placement
  // is intent like the counts are — appliers ignore a vector whose length does not
  // match the variable's row-capped count.
  void SetPlacement(const std::string& variable, std::vector<int> placement);

  // The placement this plan assigns to `variable`, or nullptr for round-robin.
  const std::vector<int>* PlacementFor(const std::string& variable) const;

  // Per-variable placements, ordered by name (deterministic iteration).
  const std::map<std::string, std::vector<int>>& placements() const { return placements_; }

  // True when no variable deviates from the default — the plans Uniform builds. A
  // placed variable is a deviation: its shards no longer follow round-robin.
  bool uniform() const { return overrides_.empty() && placements_.empty(); }

  // Largest count the plan assigns to any variable (default included) — the honest
  // single-number summary of a heterogeneous plan, where the uniform adaptive re-search
  // starts its sweep.
  int MaxPartitions() const;

  // "P=4" for uniform plans, "{emb:16, softmax:2; default P=1}" otherwise — the form
  // log lines and examples print so a heterogeneous layout never reads as one number.
  std::string ToString() const;

  friend bool operator==(const PartitionPlan& a, const PartitionPlan& b) {
    return a.default_partitions_ == b.default_partitions_ &&
           a.overrides_ == b.overrides_ && a.placements_ == b.placements_;
  }
  friend bool operator!=(const PartitionPlan& a, const PartitionPlan& b) {
    return !(a == b);
  }

 private:
  int default_partitions_ = 1;
  std::map<std::string, int> overrides_;
  std::map<std::string, std::vector<int>> placements_;
};

}  // namespace parallax

#endif  // PARALLAX_SRC_CORE_PARTITION_PLAN_H_
