// Single-device forward/backward execution of a Graph — the reference semantics that
// every distributed engine must match (the paper's transparency guarantee: the
// transformed multi-GPU graph computes "correct variable updates as done in a single-GPU
// code", section 5).
//
// RunStep evaluates the forward pass, then reverse-mode autodiff. Gradients for variables
// reached only through gather-style ops come back as IndexedSlices; all others are dense
// tensors. This mirrors TensorFlow's automatic differentiation typing, which is the
// mechanism Parallax uses to identify sparse variables.
#ifndef PARALLAX_SRC_GRAPH_EXECUTOR_H_
#define PARALLAX_SRC_GRAPH_EXECUTOR_H_

#include <deque>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/graph/graph.h"
#include "src/tensor/indexed_slices.h"
#include "src/tensor/tensor.h"

namespace parallax {

// A gradient value: dense tensor or IndexedSlices — the runtime counterpart of GradKind.
class GradValue {
 public:
  static GradValue MakeDense(Tensor tensor);
  static GradValue MakeSparse(IndexedSlices slices);

  bool is_sparse() const { return is_sparse_; }
  const Tensor& dense() const;
  const IndexedSlices& sparse() const;
  Tensor& mutable_dense();
  IndexedSlices& mutable_sparse();

  // Bytes this gradient occupies on the wire.
  int64_t WireBytes() const;
  // Scales values by factor (gradient averaging).
  void Scale(float factor);
  // Densifies a sparse gradient (for equivalence checks / mixed accumulation).
  Tensor ToDense(const TensorShape& dense_shape) const;

 private:
  bool is_sparse_ = false;
  Tensor dense_;
  IndexedSlices sparse_;
};

// Variable name/index -> current value. Each numeric engine owns one store, one buffer
// per variable (so does the single-device reference).
class VariableStore {
 public:
  VariableStore() = default;

  // Clones every variable's initial value from the graph.
  static VariableStore InitFrom(const Graph& graph);
  // Shares every variable's initial value with the graph, without a copy: a variable
  // is copied at its first GetMutable, so writes through the store never reach the
  // graph. The numeric engines start from such a store.
  static VariableStore ShareFrom(const Graph& graph);

  const Tensor& Get(int variable_index) const;
  // The variable's value for an in-place write; one still shared with the graph
  // (ShareFrom) is copied first, once.
  Tensor& GetMutable(int variable_index);
  // Stores `value` as is; a later GetMutable writes into it.
  void Set(int variable_index, Tensor value);
  bool Contains(int variable_index) const;
  size_t size() const { return values_.size(); }

  // In-place SGD update: value -= lr * grad (scatter-update for sparse gradients).
  void ApplySgd(int variable_index, const GradValue& grad, float learning_rate);

  // Contents, for composing stores (engine views -> one worker view).
  const std::unordered_map<int, Tensor>& values() const { return values_; }

  // Deep copy.
  VariableStore Clone() const;

 private:
  std::unordered_map<int, Tensor> values_;
  // shared_[v] != 0 while variable v still holds the graph's initial tensor
  // (ShareFrom). A flag, not Tensor::UniquelyOwned: a step's view holds the buffers
  // while the engines write through this store.
  std::vector<uint8_t> shared_;
};

using FeedMap = std::unordered_map<NodeId, Tensor>;

struct StepResult {
  float loss = 0.0f;
  // variable_index -> gradient. Variables not reached by the loss are absent.
  std::unordered_map<int, GradValue> grads;
};

// Reusable execution scratch — the per-graph gradient buffer plan. Holds the per-node
// value/flag tables, the cached backward closure of the fetch node, and the per-node
// gradient tensors the backward pass writes into. Threading one ExecScratch through a
// training loop makes RunStep reuse the same gradient buffers every step (shapes are
// stable across steps, so after the first step the intermediate backward pass stops
// touching the allocator). Pairing a persistent scratch with a persistent StepResult
// via RunStepInto extends the reuse to the escaping gradients too: the result's dense
// buffers, IndexedSlices storage, and map nodes are recycled, making a steady-state
// step allocation-free end to end.
// Single-owner state, like an Rng: one per thread of control.
class ExecScratch {
 public:
  ExecScratch() = default;

  // The upstream gradient of interior node `id` computed by the last RunStep through
  // this scratch, or null when the loss did not reach the node. Null for variable nodes
  // too: their gradients move into the StepResult.
  const Tensor* node_gradient(NodeId id) const;

 private:
  friend class Executor;

  // Forward tables.
  std::vector<Tensor> values;
  std::vector<uint8_t> computed;
  // Forward intermediates the backward pass reuses instead of recomputing, by node: the
  // loss node's softmax probabilities and a GatherDotT's gathered rows. Each points at
  // a `temps` slot filled this step; null for nodes that save nothing.
  std::vector<const Tensor*> saved;
  // Cached backward closure of `needed_fetch` on `needed_graph` (recomputed when the
  // fetch — or the graph this scratch is driven over — changes).
  std::vector<uint8_t> needed;
  NodeId needed_fetch = -1;
  const Graph* needed_graph = nullptr;

  // Backward tables. node_grad entries for interior nodes persist across steps and are
  // reused via the *Into kernels; variable-node entries are recycled from the previous
  // StepResult (RunStepInto moves the escaped dense gradient back in, so the result and
  // scratch buffers ping-pong across steps without touching the allocator).
  std::vector<Tensor> node_grad;
  std::vector<uint8_t> has_grad;
  // Gather/fan-in temporaries, acquired in deterministic order per step. A deque so
  // references stay valid while the pool grows mid-step.
  std::deque<Tensor> temps;
  size_t temp_cursor = 0;
  // A sparse gradient contribution recorded during the backward pass: views into stable
  // per-step storage — the graph's index tensor and a node_grad/temps slot (final by the
  // time it is recorded; every consumer of the producing node has a higher id). Owning
  // IndexedSlices are materialized only at collection time, straight into the reused
  // StepResult storage.
  struct SparseContribution {
    std::span<const int64_t> ids;
    const Tensor* values = nullptr;
  };
  // variable_index -> contributions. Vectors are cleared, never erased, each step, so
  // the map nodes and vector capacity persist across steps.
  std::unordered_map<int, std::vector<SparseContribution>> sparse_grads;
  // Collection staging for multi-contribution concats, plus the per-variable presence
  // set used to drop StepResult entries for variables no longer reached by the loss.
  std::vector<int64_t> concat_indices;
  std::vector<const Tensor*> concat_parts;
  std::vector<uint8_t> grad_present;

  Tensor& NextTemp() {
    if (temp_cursor == temps.size()) {
      temps.emplace_back();
    }
    return temps[temp_cursor++];
  }
};

class Executor {
 public:
  explicit Executor(const Graph* graph) : graph_(graph) { PX_CHECK(graph != nullptr); }

  // Forward evaluation of `fetch` given placeholder feeds and variable values.
  Tensor RunForward(const VariableStore& variables, const FeedMap& feeds, NodeId fetch) const;

  // Forward + backward from the scalar `loss` node. With a null `scratch` a private
  // (per-call) scratch is used; passing a persistent ExecScratch reuses the gradient
  // buffer plan across steps. Results are bit-identical either way.
  StepResult RunStep(const VariableStore& variables, const FeedMap& feeds, NodeId loss,
                     ExecScratch* scratch = nullptr) const;

  // Destination-passing RunStep: recycles `out`'s storage from the previous step — the
  // grads map nodes, dense gradient buffers, and IndexedSlices index/value storage are
  // all reused in place (entries for variables no longer reached by the loss are
  // erased). With a persistent scratch AND a persistent `out`, a steady-state step
  // performs no heap allocation at all. Bit-identical to RunStep, which wraps this.
  // Callers that retain tensors out of a previous result keep correctness (the reuse
  // checks fall back to fresh storage) but lose the allocation-free property.
  void RunStepInto(const VariableStore& variables, const FeedMap& feeds, NodeId loss,
                   ExecScratch* scratch, StepResult* out) const;

 private:
  // Evaluates all nodes needed for `fetch` into the scratch's forward tables.
  void Forward(const VariableStore& variables, const FeedMap& feeds, NodeId fetch,
               ExecScratch& scratch) const;

  const Graph* graph_;
};

}  // namespace parallax

#endif  // PARALLAX_SRC_GRAPH_EXECUTOR_H_
