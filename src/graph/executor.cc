#include "src/graph/executor.h"

#include <algorithm>
#include <optional>

#include "src/tensor/tensor_ops.h"

namespace parallax {

GradValue GradValue::MakeDense(Tensor tensor) {
  GradValue g;
  g.is_sparse_ = false;
  g.dense_ = std::move(tensor);
  return g;
}

GradValue GradValue::MakeSparse(IndexedSlices slices) {
  GradValue g;
  g.is_sparse_ = true;
  g.sparse_ = std::move(slices);
  return g;
}

const Tensor& GradValue::dense() const {
  PX_CHECK(!is_sparse_);
  return dense_;
}

const IndexedSlices& GradValue::sparse() const {
  PX_CHECK(is_sparse_);
  return sparse_;
}

Tensor& GradValue::mutable_dense() {
  PX_CHECK(!is_sparse_);
  return dense_;
}

IndexedSlices& GradValue::mutable_sparse() {
  PX_CHECK(is_sparse_);
  return sparse_;
}

int64_t GradValue::WireBytes() const {
  if (is_sparse_) {
    return sparse_.WireBytes();
  }
  return dense_.num_elements() * static_cast<int64_t>(sizeof(float));
}

void GradValue::Scale(float factor) {
  if (is_sparse_) {
    sparse_.Scale(factor);
  } else {
    ScaleInPlace(dense_, factor);
  }
}

Tensor GradValue::ToDense(const TensorShape& dense_shape) const {
  if (is_sparse_) {
    PX_CHECK(sparse_.dense_shape() == dense_shape);
    return sparse_.ToDense();
  }
  PX_CHECK(dense_.shape() == dense_shape);
  return dense_.Clone();
}

VariableStore VariableStore::InitFrom(const Graph& graph) {
  VariableStore store;
  for (size_t i = 0; i < graph.variables().size(); ++i) {
    store.values_[static_cast<int>(i)] = graph.variables()[i].initial_value.Clone();
  }
  return store;
}

VariableStore VariableStore::ShareFrom(const Graph& graph) {
  VariableStore store;
  for (size_t i = 0; i < graph.variables().size(); ++i) {
    store.values_[static_cast<int>(i)] = graph.variables()[i].initial_value;
  }
  store.shared_.assign(graph.variables().size(), 1);
  return store;
}

const Tensor& VariableStore::Get(int variable_index) const {
  auto it = values_.find(variable_index);
  PX_CHECK(it != values_.end()) << "variable " << variable_index << " not in store";
  return it->second;
}

Tensor& VariableStore::GetMutable(int variable_index) {
  auto it = values_.find(variable_index);
  PX_CHECK(it != values_.end()) << "variable " << variable_index << " not in store";
  const auto v = static_cast<size_t>(variable_index);
  if (v < shared_.size() && shared_[v]) {
    it->second = it->second.Clone();
    shared_[v] = 0;
  }
  return it->second;
}

void VariableStore::Set(int variable_index, Tensor value) {
  values_[variable_index] = std::move(value);
  const auto v = static_cast<size_t>(variable_index);
  if (v < shared_.size()) {
    shared_[v] = 0;
  }
}

bool VariableStore::Contains(int variable_index) const {
  return values_.find(variable_index) != values_.end();
}

void VariableStore::ApplySgd(int variable_index, const GradValue& grad, float learning_rate) {
  Tensor& value = GetMutable(variable_index);
  if (grad.is_sparse()) {
    ScatterSgdUpdate(value, grad.sparse(), learning_rate);
  } else {
    AxpyInPlace(value, -learning_rate, grad.dense());
  }
}

VariableStore VariableStore::Clone() const {
  VariableStore copy;
  for (const auto& [index, value] : values_) {
    copy.values_[index] = value.Clone();
  }
  return copy;
}

const Tensor* ExecScratch::node_gradient(NodeId id) const {
  size_t i = static_cast<size_t>(id);
  if (needed_graph == nullptr || i >= has_grad.size() || !has_grad[i] ||
      needed_graph->nodes()[i].type == OpType::kVariable) {
    return nullptr;
  }
  return &node_grad[i];
}

void Executor::Forward(const VariableStore& variables, const FeedMap& feeds, NodeId fetch,
                       ExecScratch& scratch) const {
  const auto& nodes = graph_->nodes();
  // Stale tensors in `values` are gated by `computed`; keeping them lets ops reuse
  // nothing here but avoids re-constructing the table every step.
  scratch.values.resize(nodes.size());
  scratch.computed.assign(nodes.size(), 0);
  scratch.saved.assign(nodes.size(), nullptr);
  // Temporaries are acquired in deterministic order across the whole forward+backward
  // pass, so each slot sees one stable shape per step (no realloc ping-pong).
  scratch.temp_cursor = 0;
  std::vector<Tensor>& values = scratch.values;
  std::vector<uint8_t>& computed = scratch.computed;

  // Needed set: backward closure of fetch (node inputs always precede the node).
  // Fetch-dependent but step-independent, so it is cached per scratch.
  std::vector<uint8_t>& needed = scratch.needed;
  if (scratch.needed_fetch != fetch || scratch.needed_graph != graph_ ||
      needed.size() != nodes.size()) {
    needed.assign(nodes.size(), 0);
    needed[static_cast<size_t>(fetch)] = 1;
    for (NodeId id = fetch; id >= 0; --id) {
      if (!needed[static_cast<size_t>(id)]) {
        continue;
      }
      for (NodeId input : nodes[static_cast<size_t>(id)].inputs) {
        needed[static_cast<size_t>(input)] = 1;
      }
    }
    scratch.needed_fetch = fetch;
    scratch.needed_graph = graph_;
  }

  for (NodeId id = 0; id <= fetch; ++id) {
    if (!needed[static_cast<size_t>(id)]) {
      continue;
    }
    const Node& n = nodes[static_cast<size_t>(id)];
    auto in = [&](size_t slot) -> const Tensor& {
      return values[static_cast<size_t>(n.inputs[slot])];
    };
    // Ops write into the node's persistent value slot through the *Into kernels, which
    // reuse its buffer across steps when the shape is stable and it is uniquely owned
    // (slots holding shared feed/variable tensors are swapped, never overwritten).
    Tensor& out = values[static_cast<size_t>(id)];
    switch (n.type) {
      case OpType::kPlaceholder: {
        auto it = feeds.find(id);
        PX_CHECK(it != feeds.end()) << "missing feed for placeholder " << n.name;
        out = it->second;
        break;
      }
      case OpType::kVariable:
        out = variables.Get(n.variable_index);
        break;
      case OpType::kMatMul:
        MatMulInto(out, in(0), in(1));
        break;
      case OpType::kBiasAdd: {
        const Tensor& x = in(0);
        const Tensor& bias = in(1);
        PX_CHECK_EQ(bias.shape().rank(), 1);
        PX_CHECK_EQ(x.shape().dim(1), bias.shape().dim(0));
        CopyInto(out, x);
        auto data = out.mutable_floats();
        auto b = bias.floats();
        int64_t rows = x.shape().dim(0);
        int64_t cols = x.shape().dim(1);
        for (int64_t r = 0; r < rows; ++r) {
          for (int64_t c = 0; c < cols; ++c) {
            data[static_cast<size_t>(r * cols + c)] += b[static_cast<size_t>(c)];
          }
        }
        break;
      }
      case OpType::kTanh:
        TanhInto(out, in(0));
        break;
      case OpType::kRelu:
        ReluInto(out, in(0));
        break;
      case OpType::kConcatCols:
        ConcatColsPairInto(out, in(0), in(1));
        break;
      case OpType::kGather:
        GatherRowsInto(out, in(0), in(1).ints());
        break;
      case OpType::kGatherDotT: {
        Tensor& selected = scratch.NextTemp();
        GatherRowsInto(selected, in(1), in(2).ints());
        MatMulTransposeBInto(out, in(0), selected);
        scratch.saved[static_cast<size_t>(id)] = &selected;
        break;
      }
      case OpType::kSoftmaxXentMean: {
        Tensor& probs = scratch.NextTemp();
        float loss = SoftmaxCrossEntropyInto(probs, in(0), in(1), nullptr);
        scratch.saved[static_cast<size_t>(id)] = &probs;
        if (out.is_float() && out.shape().rank() == 0 && out.UniquelyOwned()) {
          out.mutable_floats()[0] = loss;
        } else {
          out = Tensor::Scalar(loss);
        }
        break;
      }
    }
    computed[static_cast<size_t>(id)] = true;
  }
}

Tensor Executor::RunForward(const VariableStore& variables, const FeedMap& feeds,
                            NodeId fetch) const {
  ExecScratch scratch;
  Forward(variables, feeds, fetch, scratch);
  return scratch.values[static_cast<size_t>(fetch)];
}

StepResult Executor::RunStep(const VariableStore& variables, const FeedMap& feeds,
                             NodeId loss, ExecScratch* scratch) const {
  StepResult result;
  RunStepInto(variables, feeds, loss, scratch, &result);
  return result;
}

void Executor::RunStepInto(const VariableStore& variables, const FeedMap& feeds,
                           NodeId loss, ExecScratch* scratch, StepResult* out) const {
  PX_CHECK(out != nullptr);
  const auto& nodes = graph_->nodes();
  PX_CHECK(nodes[static_cast<size_t>(loss)].type == OpType::kSoftmaxXentMean)
      << "loss must be a SoftmaxXentMean node";

  // The fallback scratch is constructed only when actually needed: ExecScratch's
  // members (the temp deque in particular) allocate on construction, which would
  // charge every scratch-carrying step for a scratch it never uses.
  std::optional<ExecScratch> local;
  ExecScratch& s = scratch != nullptr ? *scratch : local.emplace();
  Forward(variables, feeds, loss, s);
  std::vector<Tensor>& values = s.values;
  std::vector<uint8_t>& computed = s.computed;

  out->loss = values[static_cast<size_t>(loss)].at(0);

  // Per-node dense upstream gradients; sparse variable gradients accumulate separately.
  // Interior node_grad buffers persist across steps (the gradient buffer plan); variable
  // nodes recycle the dense gradient that escaped into `out` last step — moving it back
  // lets the *Into kernels below overwrite it in place. If the caller retained a copy,
  // the kernels' unique-ownership check falls back to fresh storage.
  std::vector<Tensor>& node_grad = s.node_grad;
  std::vector<uint8_t>& has_grad = s.has_grad;
  node_grad.resize(nodes.size());
  has_grad.assign(nodes.size(), 0);
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].type != OpType::kVariable) {
      continue;
    }
    // No reset for the other variable nodes: whatever the slot holds (a moved-from
    // tensor, or a stale gradient for a variable the loss no longer reaches) is either
    // overwritten by the kernels below or never read — and a default Tensor is not
    // free, its [0] shape and empty buffer both allocate.
    auto it = out->grads.find(nodes[i].variable_index);
    if (it != out->grads.end() && !it->second.is_sparse()) {
      node_grad[i] = std::move(it->second.mutable_dense());
    }
  }
  auto& sparse_grads = s.sparse_grads;
  for (auto& [variable_index, contributions] : sparse_grads) {
    (void)variable_index;
    contributions.clear();
  }

  // Routes a producer kernel at the accumulation target: the first contribution writes
  // straight into the node's plan buffer; later ones go through a reusable temporary
  // and are added in, preserving the original accumulation order.
  auto emit = [&](NodeId id, auto&& produce) {
    size_t i = static_cast<size_t>(id);
    if (!has_grad[i]) {
      produce(node_grad[i]);
      has_grad[i] = 1;
    } else {
      Tensor& tmp = s.NextTemp();
      produce(tmp);
      AddInPlace(node_grad[i], tmp);
    }
  };

  for (NodeId id = loss; id >= 0; --id) {
    size_t i = static_cast<size_t>(id);
    if (!computed[i]) {
      continue;
    }
    const Node& n = nodes[i];
    if (n.type == OpType::kSoftmaxXentMean) {
      // Seed: d(loss)/d(logits); upstream of the loss node itself is 1 (it is the fetch).
      // The gradient comes from the forward pass's softmax probabilities.
      PX_CHECK_EQ(id, loss) << "interior SoftmaxXentMean nodes are not differentiable here";
      emit(n.inputs[0], [&](Tensor& dst) {
        SoftmaxCrossEntropyGradInto(dst, *s.saved[i],
                                    values[static_cast<size_t>(n.inputs[1])]);
      });
      continue;
    }
    if (!has_grad[i]) {
      continue;  // node does not influence the loss
    }
    const Tensor& g = node_grad[i];
    switch (n.type) {
      case OpType::kPlaceholder:
      case OpType::kVariable:
        break;  // terminal; variable grads are collected below
      case OpType::kMatMul: {
        const Tensor& a = values[static_cast<size_t>(n.inputs[0])];
        const Tensor& b = values[static_cast<size_t>(n.inputs[1])];
        emit(n.inputs[0], [&](Tensor& dst) { MatMulTransposeBInto(dst, g, b); });
        emit(n.inputs[1], [&](Tensor& dst) { MatMulTransposeAInto(dst, a, g); });
        break;
      }
      case OpType::kBiasAdd:
        emit(n.inputs[0], [&](Tensor& dst) { CopyInto(dst, g); });
        emit(n.inputs[1], [&](Tensor& dst) { ColumnSumInto(dst, g); });
        break;
      case OpType::kTanh:
        emit(n.inputs[0], [&](Tensor& dst) { TanhGradInto(dst, values[i], g); });
        break;
      case OpType::kRelu:
        emit(n.inputs[0], [&](Tensor& dst) {
          ReluGradInto(dst, values[static_cast<size_t>(n.inputs[0])], g);
        });
        break;
      case OpType::kConcatCols: {
        int64_t pa = values[static_cast<size_t>(n.inputs[0])].shape().dim(1);
        int64_t total = g.shape().dim(1);
        emit(n.inputs[0], [&](Tensor& dst) { SliceColsInto(dst, g, 0, pa); });
        emit(n.inputs[1], [&](Tensor& dst) { SliceColsInto(dst, g, pa, total); });
        break;
      }
      case OpType::kGather: {
        const Node& var_node = nodes[static_cast<size_t>(n.inputs[0])];
        const Tensor& ids = values[static_cast<size_t>(n.inputs[1])];
        // `g` is final here — every consumer of this node has a higher id — so the
        // contribution just views it; materialization happens at collection.
        sparse_grads[var_node.variable_index].push_back({ids.ints(), &g});
        break;
      }
      case OpType::kGatherDotT: {
        const Tensor& x = values[static_cast<size_t>(n.inputs[0])];
        const Node& var_node = nodes[static_cast<size_t>(n.inputs[1])];
        const Tensor& ids = values[static_cast<size_t>(n.inputs[2])];
        // out = x . selected^T  =>  dx = g . selected ; dselected = g^T . x, with the
        // rows the forward pass gathered.
        const Tensor& selected = *s.saved[i];
        emit(n.inputs[0], [&](Tensor& dst) { MatMulInto(dst, g, selected); });
        Tensor& dselected = s.NextTemp();
        MatMulTransposeAInto(dselected, g, x);
        sparse_grads[var_node.variable_index].push_back({ids.ints(), &dselected});
        break;
      }
      case OpType::kSoftmaxXentMean:
        break;  // handled above
    }
  }

  // Collect per-variable gradients: dense upstream on the variable node, plus any sparse
  // contributions. A variable with both becomes dense (matching GradKind analysis).
  // Results are materialized into `out`'s existing entries — map node, dense buffer, and
  // IndexedSlices index/value storage are all reused in place — then entries for
  // variables that no longer receive a gradient are dropped.
  std::vector<uint8_t>& grad_present = s.grad_present;
  grad_present.assign(graph_->variables().size(), 0);
  for (size_t v = 0; v < graph_->variables().size(); ++v) {
    const VariableDef& def = graph_->variables()[v];
    size_t node_index = static_cast<size_t>(def.node);
    bool dense_present = has_grad[node_index];
    auto sparse_it = sparse_grads.find(static_cast<int>(v));
    bool sparse_present = sparse_it != sparse_grads.end() && !sparse_it->second.empty();
    if (!dense_present && !sparse_present) {
      continue;
    }
    grad_present[v] = 1;
    GradValue& gv = out->grads[static_cast<int>(v)];
    // Dense adoption reuses the entry in place when it is already dense — building a
    // fresh GradValue default-constructs a Tensor, which allocates.
    auto adopt_dense = [&gv](Tensor&& tensor) {
      if (gv.is_sparse()) {
        gv = GradValue::MakeDense(std::move(tensor));
      } else {
        gv.mutable_dense() = std::move(tensor);
      }
    };
    if (!sparse_present) {
      adopt_dense(std::move(node_grad[node_index]));
    } else if (!dense_present) {
      if (!gv.is_sparse()) {
        gv = GradValue::MakeSparse(IndexedSlices());
      }
      IndexedSlices& dst = gv.mutable_sparse();
      const auto& contributions = sparse_it->second;
      if (contributions.size() == 1) {
        dst.ResetForReuse(contributions.front().ids, def.shape);
        CopyInto(dst.mutable_values(), *contributions.front().values);
      } else {
        std::vector<int64_t>& indices = s.concat_indices;
        std::vector<const Tensor*>& parts = s.concat_parts;
        indices.clear();
        parts.clear();
        for (const ExecScratch::SparseContribution& c : contributions) {
          indices.insert(indices.end(), c.ids.begin(), c.ids.end());
          parts.push_back(c.values);
        }
        dst.ResetForReuse(indices, def.shape);
        ConcatRowsInto(dst.mutable_values(), parts);
      }
    } else {
      adopt_dense(std::move(node_grad[node_index]));
      auto dense = gv.mutable_dense().mutable_floats();
      int64_t row = def.shape.row_elements();
      // Inline scatter-add (contribution order, then row order) — the same accumulation
      // order as ScatterAddInPlace over the previously materialized slices.
      for (const ExecScratch::SparseContribution& c : sparse_it->second) {
        auto src = c.values->floats();
        for (size_t r = 0; r < c.ids.size(); ++r) {
          float* d = dense.data() + c.ids[r] * row;
          const float* sv = src.data() + static_cast<int64_t>(r) * row;
          for (int64_t e = 0; e < row; ++e) {
            d[e] += sv[e];
          }
        }
      }
    }
  }
  for (auto it = out->grads.begin(); it != out->grads.end();) {
    if (static_cast<size_t>(it->first) < grad_present.size() &&
        grad_present[static_cast<size_t>(it->first)] != 0) {
      ++it;
    } else {
      it = out->grads.erase(it);
    }
  }
}

}  // namespace parallax
