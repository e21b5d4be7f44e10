// Asynchronous parameter-server training (paper section 2.1: "Parallax supports both
// synchronous and asynchronous training").
//
// In asynchronous mode there are no accumulators and no chief barrier: each worker's
// gradient is applied to the shared variables the moment it arrives, and workers read
// whatever values the servers currently hold. Updates are therefore computed against
// *stale* parameters — the staleness the paper cites as the reason most users train
// synchronously (section 2.1's accuracy discussion). The engine exposes the arrival
// order explicitly so tests can reproduce any interleaving deterministically.
//
// AsyncPsEngine implements the SyncEngine interface (core/sync_engine.h) and registers
// as "async_ps", which is what makes PushGradients reachable from the runner: a runner
// step delivers every rank's gradients as one deterministic arrival sequence (rank
// order), each push applied against the values the previous push left behind.
#ifndef PARALLAX_SRC_PS_PS_ASYNC_H_
#define PARALLAX_SRC_PS_PS_ASYNC_H_

#include "src/ps/ps_numeric.h"

namespace parallax {

class AsyncPsEngine : public SyncEngine {
 public:
  // Unconfigured engine (the registry path): Prepare(plan) routes variables here.
  explicit AsyncPsEngine(const Graph* graph);
  AsyncPsEngine(const Graph* graph, PsNumericConfig config);

  // SyncEngine:
  void Prepare(const SyncPlan& plan) override;
  // Applies the given ranks' pushes in arrival (rank) order, each immediately. In the
  // runner's sequential-arrival mode this is called once per rank with a single result
  // — the fully asynchronous protocol, where rank r+1 computed against values rank r
  // already moved. In a mixed plan (barrier fallback) the whole batch arrives at once
  // and is drained as one deterministic arrival sequence.
  void ApplyStep(const std::vector<StepResult>& per_rank, float learning_rate) override;
  VariableStore View() const override { return engine_.View(); }
  SyncMethod CostMethod(GradKind) const override { return SyncMethod::kPs; }
  bool SequentialArrival() const override { return true; }
  // Checkpoint restore: the inner engine owns the values, so it does the loading.
  void LoadValues(const VariableStore& values) override { engine_.LoadValues(values); }
  // Forwarded to the inner engine, whose step path does the reporting. Each push is a
  // single-contributor apply, so observations arrive as per-worker access-ratio
  // samples (contributions == 1) — no union inversion needed.
  void set_observer(SparseAccessObserver* observer) override {
    SyncEngine::set_observer(observer);
    engine_.set_observer(observer);
  }

  // Applies one worker's gradients immediately (no aggregation, no barrier). The
  // learning rate is applied per push, matching TF's asynchronous replica semantics.
  void PushGradients(const StepResult& grads, float learning_rate);

  // What a worker pulling right now would observe.
  VariableStore CurrentValues() const;

  int64_t pushes_applied() const { return pushes_applied_; }

 private:
  PsNumericEngine engine_;  // owns the values; the async path bypasses accumulators
  int64_t pushes_applied_ = 0;
};

}  // namespace parallax

#endif  // PARALLAX_SRC_PS_PS_ASYNC_H_
