#include "src/ps/ps_async.h"

namespace parallax {

namespace {

PsNumericConfig ForAsync(PsNumericConfig config) {
  // No accumulators, no per-machine grouping: every push stands alone.
  config.local_aggregation = false;
  config.ranks_per_machine = 1;
  // A single push *is* the whole contribution; averaging would shrink it.
  config.dense_aggregation = AggregationMethod::kSum;
  config.sparse_aggregation = AggregationMethod::kSum;
  return config;
}

}  // namespace

AsyncPsEngine::AsyncPsEngine(const Graph* graph) : engine_(graph) {
  set_name("async_ps");
}

AsyncPsEngine::AsyncPsEngine(const Graph* graph, PsNumericConfig config)
    : engine_(graph, ForAsync(std::move(config))) {
  set_name("async_ps");
}

void AsyncPsEngine::Prepare(const SyncPlan& plan) {
  // The inner engine must manage the variables routed to *this* engine's name, so the
  // plan is translated into an explicit config instead of forwarding Prepare.
  engine_.Reconfigure(ForAsync(PsNumericConfigFor(plan, name())));
}

void AsyncPsEngine::ApplyStep(const std::vector<StepResult>& per_rank,
                              float learning_rate) {
  for (const StepResult& grads : per_rank) {
    PushGradients(grads, learning_rate);
  }
}

void AsyncPsEngine::PushGradients(const StepResult& grads, float learning_rate) {
  // One contributor, applied immediately: the degenerate single-rank synchronous step
  // *is* the asynchronous update (sum over one worker, no waiting), read in place.
  engine_.ApplyRanks({&grads, 1}, learning_rate);
  ++pushes_applied_;
}

VariableStore AsyncPsEngine::CurrentValues() const { return engine_.CurrentValues(); }

}  // namespace parallax
