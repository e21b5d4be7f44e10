// The synchronization-engine seam (paper section 3.1: the synchronization architecture
// is a *per-variable* decision).
//
// A SyncPlan is the runner's complete per-variable routing: which engine synchronizes
// each variable, with which partition count, under which aggregation semantics. A
// SyncEngine is one synchronization mechanism (parameter server, AllReduce, async PS,
// anything registered) behind a small interface:
//
//   Prepare(plan)    — (re)configure for the variables the plan routes here. Values
//                      start at the graph's initial values (shared with the graph
//                      until the engine first writes a variable) and no Prepare moves
//                      them, which is what makes elastic mid-training re-partitioning
//                      and rescaling a plain re-Prepare.
//   ApplyStep(...)   — one synchronous data-parallel step over the managed variables.
//   View()           — the managed variables' current values as a worker observes them.
//   CostMethod(kind) — the timing-plane model for a variable of this gradient kind
//                      (the cost hook the iteration simulator consumes).
//
// plus two opt-in hooks: SequentialArrival() (asynchronous per-rank delivery) and
// set_observer() (the sparse-nnz tap behind adaptive re-partitioning,
// core/sparsity_monitor.h).
//
// Engines register by name in the SyncEngineRegistry ("ps", "ar", "async_ps" are
// built in), so new strategies plug into RunnerBuilder::WithEngine without touching
// the runner. The PS/AR/async-PS numeric runtimes in src/ps and src/ar implement this
// interface; this header is the one core interface they are allowed to include.
#ifndef PARALLAX_SRC_CORE_SYNC_ENGINE_H_
#define PARALLAX_SRC_CORE_SYNC_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/comm/reduce.h"
#include "src/graph/executor.h"
#include "src/graph/graph.h"
#include "src/models/model_spec.h"

namespace parallax {

// How one variable's gradients are synchronized (the timing-plane vocabulary).
enum class SyncMethod : uint8_t {
  kPs,            // parameter server shard(s): pull / push / accumulate / update
  kArAllReduce,   // dense ring AllReduce (also used for sparse-treated-as-dense)
  kArAllGatherv,  // sparse AllGatherv across ranks
};

// AllGatherv algorithm. kRing is the bandwidth-optimal schedule; kBroadcast models the
// OpenMPI fallback the paper had to use ("we inevitably use OpenMPI for AllGatherv,
// which is not provided by NCCL", section 6.1): every rank sends its block to every
// other rank, which floods the receiving NICs at scale.
enum class GathervAlgorithm : uint8_t {
  kRing,
  kBroadcast,
};

// How a compression engine transforms one variable's gradient before it reaches the
// wire — the timing-plane vocabulary for the compressed-push cost (engines declare
// theirs through SyncEngine::CostCompression; the iteration simulator prices it).
enum class CompressionKind : uint8_t {
  kNone,  // uncompressed (the default for every built-in engine)
  kTopK,  // magnitude top-k row sparsification: only ratio * nnz rows reach the wire
  kInt8,  // per-row int8 quantization: values shrink 4x, one float scale per row
};

struct CompressionSpec {
  CompressionKind kind = CompressionKind::kNone;
  // kTopK: fraction of the touched rows that survive selection (k = ceil(ratio * nnz)).
  double ratio = 1.0;
  // kTopK: unsent rows accumulate into a residual and re-compete next step (DGC-style
  // error feedback) instead of being dropped. Changes numerics, not wire volume.
  bool error_feedback = true;

  bool operator==(const CompressionSpec& other) const = default;
};

struct VariableSync {
  VariableSpec spec;
  SyncMethod method = SyncMethod::kPs;
  // How this variable's gradient is compressed before the push. Stamped by the runner
  // from the routed engine's CostCompression hook; kNone for the built-in engines. The
  // simulator prices the compressed wire bytes plus the select/quantize compute from
  // this, which is what lets the partition search exploit compression.
  CompressionSpec compression;
  // PS only; >1 splits the shard row-wise across servers. This count is per variable —
  // a PartitionPlan stamps each partitioner-scoped variable's own count here (row-
  // capped), and the timing plane and the migration estimate split the shard from
  // exactly this field. The engines' values do not depend on it.
  int partitions = 1;
  // PS only; placement[p] is the server machine hosting piece p. Empty (the default)
  // means the historical round-robin assignment; when a PartitionPlan carries a
  // searched placement the runner stamps it here (only if its length matches the
  // row-capped partition count), and the timing plane and the migration estimate read
  // shard ownership from this one field.
  std::vector<int> placement;

  bool operator==(const VariableSync& other) const = default;
};

// The runner's complete synchronization decision, handed to every engine's Prepare.
// `variables` and `engines` are parallel to Graph::variables().
struct SyncPlan {
  std::vector<VariableSync> variables;
  // Registry name of the engine synchronizing each variable ("ps", "ar", ...).
  std::vector<std::string> engines;

  int num_ranks = 1;
  // Ranks per machine (local-aggregation grouping for PS-family engines).
  int ranks_per_machine = 1;
  bool local_aggregation = true;
  AggregationMethod dense_aggregation = AggregationMethod::kAverage;
  AggregationMethod sparse_aggregation = AggregationMethod::kAverage;

  // Indices of the variables the plan routes to `engine`, ascending.
  std::vector<int> ManagedBy(const std::string& engine) const;
};

// Receives the nonzero structure the synchronization path observes while it applies a
// step — the raw signal behind measured alpha (core/sparsity_monitor.h). Observations
// ride data the aggregation kernels compute anyway (coalesced row counts from the fused
// workspace pass), so an attached observer costs one virtual call per sparse variable
// per step and a detached one costs nothing.
class SparseAccessObserver {
 public:
  virtual ~SparseAccessObserver() = default;

  // One sparse variable's aggregated gradient in one applied step: `unique_rows`
  // distinct row indices after coalescing the contributions of `contributions` ranks.
  // contributions == 1 means a per-worker gradient (e.g. an asynchronous push) — a
  // direct access-ratio sample; contributions == R means the union over R workers,
  // which the monitor inverts through the independent-access model (UnionAlpha).
  // Called from the engine's step path (the runner's thread of control), never from
  // kernel worker lanes.
  virtual void ObserveSparseStep(int variable, int64_t unique_rows, int contributions) = 0;

  // Per-rank tap: ONE worker's own coalesced row count for `variable` in the step in
  // flight — a direct access-ratio sample that needs no union inversion, so it stays
  // unbiased even when workers share hot rows (where the independent-access inversion
  // under-reads alpha). Engines with an observer attached call it once per sparse
  // variable per step for a rotating rank (every worker is represented over time at
  // the cost of a single count per step); the default no-op keeps single-sample
  // observers (contributions == 1 paths) free of double counting.
  virtual void ObserveRankAccess(int variable, int64_t unique_rows) {
    (void)variable;
    (void)unique_rows;
  }
};

class SyncEngine {
 public:
  virtual ~SyncEngine() = default;

  // (Re)configures the engine for the plan entries naming it. Must be value-preserving:
  // a second Prepare (e.g. with a new partition count, placement or rank count) keeps
  // the variables' current values bit-identical. Layout is the timing plane's concern,
  // so the built-in engines only refresh routing and aggregation here.
  virtual void Prepare(const SyncPlan& plan) = 0;

  // One synchronous training step given every rank's backward results; applies SGD with
  // `learning_rate` to the managed variables.
  virtual void ApplyStep(const std::vector<StepResult>& per_rank, float learning_rate) = 0;

  // Current values of the managed variables, as a worker pulling now observes them.
  // Returned tensors may share the engine's buffers: the built-in engines hand out the
  // buffers they update, with no copy. Before an engine's first write to a variable,
  // that buffer is the graph's initial tensor, which the engine never writes: its first
  // ApplyStep update copies the variable and writes the copy, so a View taken before
  // it keeps the initial values. After that, the values read through a View are
  // current until the next ApplyStep writes through them or LoadValues replaces them
  // (a Prepare leaves them as they are). Callers that need a snapshot Clone() the
  // store.
  virtual VariableStore View() const = 0;

  // Overwrites the managed variables' current values from `values` (a full worker
  // view, e.g. a loaded checkpoint), keeping the engine's configuration untouched. The
  // restore counterpart of the value-preserving re-Prepare: Prepare carries values
  // across a layout change, LoadValues carries a layout across a value change (crash
  // recovery, GraphRunner::RestoreFrom). Engines must copy, never alias, the incoming
  // tensors, so the copy is the engine's own buffer from then on; a View taken before
  // keeps the replaced buffers (the graph's initial tensors, before a first write).
  // Only variables present in `values` AND managed by this engine move; the default
  // no-op suits engines that hold no persistent state.
  virtual void LoadValues(const VariableStore& values) { (void)values; }

  // Cost hook for the timing plane: how the iteration simulator models a variable of
  // this gradient kind when it is synchronized by this engine.
  virtual SyncMethod CostMethod(GradKind kind) const = 0;

  // Companion cost hook: how this engine compresses a gradient of `kind` before the
  // wire. The default (kNone) keeps every existing engine's timing plane untouched;
  // compression engines return their configured spec so the simulator and the
  // partition search price the compressed volume.
  virtual CompressionSpec CostCompression(GradKind kind) const {
    (void)kind;
    return {};
  }

  // Arrival semantics. An engine returning true wants each rank's gradients the moment
  // they are computed — the barrier-free asynchronous protocol: the runner then runs
  // ranks sequentially, refreshing the worker view between them, and delivers each
  // rank's results as a one-element ApplyStep (so rank r+1 computes against the values
  // rank r already moved — staleness, paper section 2.1). Honored only when EVERY
  // engine in the plan agrees; a mixed plan falls back to the synchronous barrier,
  // where per-rank results arrive as one batch in rank order.
  virtual bool SequentialArrival() const { return false; }

  // Registry name this instance answers to in SyncPlan::engines. Concrete engines set
  // their canonical name at construction; the registry overrides it when a factory is
  // registered under a different name.
  const std::string& name() const { return name_; }

  // Attaches (or, with nullptr, detaches) the observer this engine reports sparse
  // access structure to. Honored by the PS-family engines — the ones whose variables
  // the partitioner owns; engines without an observable sparse path ignore the
  // observer, which is the correct default for mechanisms partitioning cannot affect.
  // Virtual so wrapper engines (async PS) can forward the observer to the engine they
  // delegate to. The observer must outlive the engine or be detached first.
  virtual void set_observer(SparseAccessObserver* observer) { observer_ = observer; }

 protected:
  void set_name(std::string name) { name_ = std::move(name); }
  SparseAccessObserver* observer() const { return observer_; }

 private:
  friend class SyncEngineRegistry;
  std::string name_;
  SparseAccessObserver* observer_ = nullptr;
};

// What a registered factory gets to construct an engine; per-step specifics arrive via
// Prepare.
struct SyncEngineEnv {
  const Graph* graph = nullptr;
};

// Name -> factory registry. "ps", "ar", "async_ps", "topk_ps", and "int8_ps" are
// pre-registered; libraries and tests add strategies with Register and reach them
// through RunnerBuilder::WithEngine.
class SyncEngineRegistry {
 public:
  using Factory = std::function<std::unique_ptr<SyncEngine>(const SyncEngineEnv&)>;

  // The process-wide registry (the one RunnerBuilder consults).
  static SyncEngineRegistry& Global();

  // InvalidArgument naming the offender for a duplicate, empty name, or null factory;
  // the registry is unchanged on error.
  Status Register(const std::string& name, Factory factory);
  bool Contains(const std::string& name) const;
  // Registered names, ascending.
  std::vector<std::string> Names() const;

  // Constructs and names an engine (the runner creates every engine here); NotFound
  // naming the unknown engine and listing the registered names.
  StatusOr<std::unique_ptr<SyncEngine>> CreateChecked(const std::string& name,
                                                      const SyncEngineEnv& env) const;

 private:
  std::map<std::string, Factory> factories_;
};

}  // namespace parallax

#endif  // PARALLAX_SRC_CORE_SYNC_ENGINE_H_
