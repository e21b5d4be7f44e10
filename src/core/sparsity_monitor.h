// Measured-sparsity monitoring and the adaptive re-partitioning policy (the closed
// loop behind ROADMAP's "automatic re-partitioning" item).
//
// The partition search (cost_model.h) chooses P for the alpha the runner *measured at
// startup* — a handful of sampled backward passes. When the live access pattern drifts
// (vocabulary warm-up, curriculum phases, epoch boundaries), that P goes stale: the
// accumulator-serialization cost theta1 scales with the rows a step actually touches,
// so the optimum moves with alpha. The SparsityMonitor closes the loop:
//
//   observe   — every applied step, the PS-family engines report each sparse
//               variable's aggregated nnz through the SparseAccessObserver interface
//               (core/sync_engine.h). The counts fall out of the fused aggregation
//               pass's segment table, so observation is free; a detached monitor costs
//               nothing at all. Multi-rank engines additionally tap each worker's own
//               coalesced row count (ObserveRankAccess) — a direct per-worker sample.
//   estimate  — per-step access ratios are folded into TWO EWMAs per variable. The
//               drift estimator folds union observations (k ranks coalesced) inverted
//               through the independent-access model of UnionAlpha: u = 1-(1-a)^k, so
//               a = 1-(1-u)^(1/k); per-worker observations (async pushes, k == 1) fold
//               directly. The plan estimator folds only per-rank samples, which need
//               no inversion — so when correlated workers share hot rows (where the
//               inversion under-reads alpha), the alpha handed to the re-search stays
//               unbiased. plan_alpha() prefers the rank estimator when samples exist.
//   detect    — every check_interval steps (after warmup, outside cooldown) the
//               largest relative deviation of the drift EWMA from its self-calibrated
//               baseline is compared to drift_threshold (estimator-vs-estimator, so a
//               stable inversion bias cancels; the rank estimator plays no gate role).
//   decide    — on drift, the runner re-runs the partition search — uniform or
//               per-variable (a PartitionPlan via coordinate descent), per the
//               configured search mode — against the *measured* plan alphas over the
//               shared SimulationArena, and adopts the new layout via
//               GraphRunner::Repartition only if the simulated iteration time improves
//               by more than the hysteresis margin AND the win amortizes the layout
//               migration's shard-byte cost within the cooldown window. Either way the
//               verdict is appended to the decision trail and the baseline is
//               re-anchored to the measured state, so the same drift never triggers
//               twice.
//
// The monitor is measurement + policy state; the re-search and the repartition stay in
// GraphRunner, which owns the plan, the engines, and the simulation arena. See
// docs/adaptivity.md for the model and a tuning guide.
#ifndef PARALLAX_SRC_CORE_SPARSITY_MONITOR_H_
#define PARALLAX_SRC_CORE_SPARSITY_MONITOR_H_

#include <cstdint>
#include <vector>

#include "src/core/partition_plan.h"
#include "src/core/sync_engine.h"

namespace parallax {

// Policy knobs of the adaptive loop (RunnerBuilder::WithAdaptivePartitioning). The
// defaults favor stability over reactivity; docs/adaptivity.md discusses when to move
// each knob.
struct AdaptivePartitioningPolicy {
  // Weight of the newest per-step estimate in the EWMA: alpha <- (1-d)*alpha + d*obs.
  // Higher reacts faster, lower smooths per-batch noise.
  double ewma_decay = 0.25;
  // Relative deviation |ewma - baseline| / baseline that counts as drift and triggers
  // a re-search.
  double drift_threshold = 0.2;
  // Minimum relative improvement of simulated iteration time required to adopt a new
  // partition count: adopt iff t(new) < t(current) * (1 - hysteresis). Suppresses
  // flapping between near-equivalent layouts.
  double hysteresis = 0.05;
  // Observed steps before the first drift check (lets the EWMA settle).
  int warmup_steps = 8;
  // Steps between drift checks.
  int check_interval = 8;
  // Steps after a re-search verdict before the next check (re-Prepare is cheap but
  // not free; this bounds the worst-case re-search rate).
  int cooldown_steps = 16;
  // When false the loop measures, refreshes the timing plane, and records verdicts,
  // but never swaps the partition count — the pinned-layout control for A/B runs.
  bool repartition = true;
};

// One entry of the decision trail: a drift check that crossed the threshold and the
// re-search verdict it produced.
struct AdaptationVerdict {
  int64_t step = 0;              // runner iteration at which the check fired
  int variable = -1;             // variable with the largest relative drift
  double drift = 0.0;            // that variable's relative drift at the check
  double measured_alpha = 0.0;   // its drift-EWMA alpha at the check
  // The full layouts: incumbent, the re-search's best candidate (== from_plan when the
  // search found nothing better), and the one in force after the verdict (== from_plan
  // when not adopted). best_plan is recorded adopted or not — how near-equal a vetoed
  // alternative was is what the hysteresis tuning guide reads off the trail.
  PartitionPlan from_plan;
  PartitionPlan best_plan;
  PartitionPlan to_plan;
  double current_seconds = 0.0;  // simulated iteration time at from_plan,
                                 // measured alphas
  double best_seconds = 0.0;     // simulated iteration time at the best candidate
  // Estimated cost of swapping from_plan -> best candidate: on a real cluster every
  // variable whose count or placement changes moves its shard bytes between servers.
  // Charged to the simulated clock when adopted.
  double migration_seconds = 0.0;
  // True iff the per-step win pays the migration back before the loop could revisit
  // the decision: (current - best) * max(cooldown_steps, check_interval) >=
  // migration_seconds. A candidate that clears hysteresis but not amortization is
  // vetoed.
  bool amortized = true;
  bool adopted = false;          // true iff the runner called Repartition
};

class SparsityMonitor : public SparseAccessObserver {
 public:
  explicit SparsityMonitor(AdaptivePartitioningPolicy policy);

  // Registers a variable to monitor. `rows` is the variable's row count (the
  // denominator of every access ratio); `baseline_alpha` is the alpha the current
  // plan was built with — the EWMA starts there and drift is measured against it.
  void Track(int variable, int64_t rows, double baseline_alpha);

  // SparseAccessObserver: accumulates one aggregated-gradient observation for the
  // step in flight. Untracked variables are ignored. A contributions == 1 observation
  // is a per-worker sample and also feeds the rank estimator (it needs no inversion).
  void ObserveSparseStep(int variable, int64_t unique_rows, int contributions) override;

  // SparseAccessObserver: one worker's own coalesced row count — folded into the
  // inversion-free rank estimator behind plan_alpha(). Untracked variables ignored.
  void ObserveRankAccess(int variable, int64_t unique_rows) override;

  // Folds the step's observations into the EWMAs and advances the step counter.
  // Called once per runner Step, after every engine applied its gradients.
  //
  // When the step counter reaches max(warmup_steps, 1) the baselines self-calibrate:
  // every baseline is replaced by the variable's warmed-up EWMA. Drift is therefore
  // measured estimator-against-estimator, so a *stable* estimator bias — e.g. the
  // union inversion under-reading alpha while correlated workers hammer one hot row
  // set — cancels instead of masquerading as drift at the first check.
  void EndStep();

  // True when the warmup / check-interval / cooldown gates all pass — the runner
  // should evaluate drift now.
  bool DriftCheckDue() const;
  // Marks a drift check that stayed below the threshold (restarts check_interval
  // without touching baselines or cooldown).
  void NoteCheck();
  // Appends a re-search verdict to the trail, re-anchors every baseline to the
  // current EWMA, and starts the cooldown.
  void RecordVerdict(const AdaptationVerdict& verdict);
  // The adaptive loop's rescale hook (GraphRunner::Rescale): membership change is
  // treated like adopted drift — baselines re-anchor to the current EWMAs and the
  // cooldown starts — without a trail entry (the runner keeps its own rescale trail).
  void NoteMembershipChange();

  // Largest relative EWMA-vs-baseline deviation over tracked variables; the variable
  // attaining it is written to *argmax_variable (unchanged when nothing is tracked).
  double MaxRelativeDrift(int* argmax_variable) const;

  // ---- introspection ----
  const AdaptivePartitioningPolicy& policy() const { return policy_; }
  // Tracked variable indices, in Track order.
  std::vector<int> tracked() const;
  bool Tracks(int variable) const { return SlotOf(variable) >= 0; }
  // Current EWMA estimate of the per-worker access ratio — the *drift* estimator
  // (union observations inverted through the independent-access model).
  double measured_alpha(int variable) const;
  // The alpha the runner should rebuild the plan with: the per-rank estimator when any
  // rank sample has been observed (unbiased under correlated workers), the drift
  // estimator otherwise. This is what the re-search and the refreshed timing plane
  // consume.
  double plan_alpha(int variable) const;
  // The alpha drift is currently measured against (the plan's alpha at the last
  // re-anchor).
  double baseline_alpha(int variable) const;
  // Observed steps so far.
  int64_t steps() const { return steps_; }
  // Every threshold-crossing check, oldest first.
  const std::vector<AdaptationVerdict>& trail() const { return trail_; }
  // Number of adopted verdicts (successful Repartition calls).
  int repartition_count() const;

 private:
  struct TrackedVariable {
    int variable = -1;
    int64_t rows = 1;
    double baseline = 1.0;
    double ewma = 1.0;
    // Inversion-free estimator over per-rank samples (plan_alpha); tracks ewma until
    // the first rank sample arrives.
    double rank_ewma = 1.0;
    bool any_rank_sample = false;
    // Step-in-flight accumulators: mean of the per-observation alpha estimates.
    double pending_sum = 0.0;
    int pending_count = 0;
    double rank_pending_sum = 0.0;
    int rank_pending_count = 0;
  };

  int SlotOf(int variable) const;

  AdaptivePartitioningPolicy policy_;
  std::vector<TrackedVariable> vars_;
  int64_t steps_ = 0;
  int64_t last_check_step_ = 0;
  int64_t last_verdict_step_ = 0;
  bool any_verdict_ = false;
  bool calibrated_ = false;
  std::vector<AdaptationVerdict> trail_;
};

}  // namespace parallax

#endif  // PARALLAX_SRC_CORE_SPARSITY_MONITOR_H_
