// The sparse-variable partitioning cost model and sampling search (paper section 3.2).
//
// Equation 1:   iter_time(P) = theta0 + theta1 * (1/P) + theta2 * P
//
//   theta0 — fixed computation/communication independent of the partition count,
//   theta1 — the cost partitioning parallelizes/amortizes (accumulator serialization),
//   theta2 — per-partition overhead (stitching, per-piece bookkeeping, extra requests).
//
// The search replicates the paper's procedure: start at P = number of machines, measure
// the iteration time there, double P until iteration time starts to increase, then
// halve from the start point until it increases again. The model is a convex function
// of P, so the sampled interval brackets the optimum and the fit never extrapolates.
// The fitted optimum is then snapped to the best predicted integer. The paper measures
// each sample as a short real run (100 iterations, the first 50 discarded); a
// simulated sample here is one iteration, because the simulator's iteration barrier
// drains the cluster and nothing carries over into a later iteration
// (IterationSimulator::MeasureIterationSeconds).
//
// SearchPartitionPlan generalizes the procedure to one count *per variable* (a
// PartitionPlan): a uniform sweep seeds the descent, Equation 1's closed form at each
// variable's measured alpha spreads the seed across variables, and coordinate descent —
// the same doubling/halving sweep, one variable at a time — refines until no move wins.
// An optional placement pass then picks each piece's server, reading the topology from
// the ClusterSpec the candidates are simulated on.
#ifndef PARALLAX_SRC_CORE_COST_MODEL_H_
#define PARALLAX_SRC_CORE_COST_MODEL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/core/partition_plan.h"
#include "src/sim/cluster.h"

namespace parallax {

struct CostModelFit {
  double theta0 = 0.0;
  double theta1 = 0.0;
  double theta2 = 0.0;
  double rmse = 0.0;
  bool ok = false;

  double Predict(double partitions) const {
    return theta0 + theta1 / partitions + theta2 * partitions;
  }
  // Unconstrained continuous minimizer sqrt(theta1/theta2); 1 when degenerate.
  double ContinuousOptimum() const;
};

// Least-squares fit of Equation 1 to (partition count, iteration seconds) samples.
CostModelFit FitCostModel(const std::vector<std::pair<int, double>>& samples);

struct PartitionSearchOptions {
  // Initial sample point; the paper uses the number of machines.
  int initial_partitions = 8;
  int min_partitions = 1;
  int max_partitions = 4096;
  // Per-variable search only: when true AND every variable carries previous_partitions,
  // the uniform sweep and closed-form seed are skipped — coordinate descent starts at
  // the previous counts and its first round sweeps only the variables marked drifted.
  // This is the re-search the adaptive runner performs when alpha drift is confined to
  // one variable: O(one sweep) instead of O(full search).
  bool warm_start = false;
  // Per-variable search only: also search each piece's server (SearchPartitionPlan's
  // placement pass) on the cluster the candidates are simulated on. Off by default:
  // flat clusters and placement-oblivious searches pay nothing.
  bool placement = false;

  bool operator==(const PartitionSearchOptions& other) const = default;
};

// The per-variable search's fixed tuning. A coordinate move is adopted when it beats
// the incumbent plan's measured time by this relative margin. The margin keeps the
// descent from chasing simulator noise and guarantees termination on a finite
// landscape.
inline constexpr double kCoordinateMargin = 0.002;
// Full passes over the variables before the descent stops even if moves keep winning
// (each pass re-sweeps every coordinate).
inline constexpr int kMaxCoordinateRounds = 4;
// Placement refinement: rounds of busiest-to-idlest piece moves, candidate moves tried
// per round, and the relative measured-time margin a move must beat.
inline constexpr int kMaxSwapRounds = 2;
inline constexpr int kMaxSwapTrials = 4;
inline constexpr double kSwapMargin = 0.002;

// The options every search below requires: min_partitions >= 1 and max_partitions >=
// min_partitions. The searches abort on a violation; RunnerBuilder::Build and
// PlannerService::Plan, which take options from callers, return this InvalidArgument
// instead.
Status ValidateSearchOptions(const PartitionSearchOptions& options);

// Which search the runner performs for partitioner-scoped sparse variables.
enum class PartitionSearchMode : uint8_t {
  kUniform,      // one shared P (the paper's section 3.2 procedure)
  kPerVariable,  // a PartitionPlan via coordinate descent (SearchPartitionPlan)
};

struct PartitionSearchResult {
  int best_partitions = 1;
  CostModelFit fit;
  // Every sampling run performed: (P, measured mean iteration seconds).
  std::vector<std::pair<int, double>> samples;
  double predicted_seconds = 0.0;
};

// measure(P) must return the mean iteration time at P partitions (the caller decides how:
// simulated training for the benches, or any user-supplied profiler).
PartitionSearchResult SearchPartitions(const std::function<double(int)>& measure,
                                       const PartitionSearchOptions& options);

// One variable the per-variable search may re-shard.
struct PartitionSearchVariable {
  std::string name;
  // Measured per-worker access ratio — the alpha Equation 1's theta1 scales with.
  double alpha = 1.0;
  // Variable size; alpha * num_elements is the closed-form seed's workload weight.
  int64_t num_elements = 0;
  // Per-variable cap (typically the row count: a variable cannot have more pieces than
  // rows). 0 means options.max_partitions.
  int64_t max_partitions = 0;
  // Warm start (options.warm_start): the count this variable held in the previous
  // adopted plan (0 = unknown, which disables the warm start for the whole search) and
  // whether its measured alpha drifted since. Round 0 of a warm-started descent sweeps
  // only drifted variables.
  int previous_partitions = 0;
  bool drifted = true;
};

struct PartitionPlanSearchResult {
  // The adopted per-variable layout (default count 1; one override per searched
  // variable).
  PartitionPlan plan;
  // Measured mean iteration seconds of the adopted plan.
  double seconds = 0.0;
  // Measured seconds at the best *uniform* P (row caps applied) — the baseline the
  // per-variable plan must beat to be worth its extra sampling runs.
  double uniform_seconds = 0.0;
  // The uniform sweep that seeded the descent (fit, samples, best P).
  PartitionSearchResult uniform;
  // Coordinate-descent passes performed (a pass with no winning move terminates).
  int rounds = 0;
  // Distinct plans measured across all phases (memoized; repeats are free).
  int evaluations = 0;
  // True when the uniform sweep and closed-form seed were skipped because every
  // variable carried a previous count (options.warm_start). uniform_seconds then holds
  // the measured time of the previous plan, and `uniform` stays empty.
  bool warm_started = false;
  // Placement search only: the measured seconds of the adopted counts under the
  // historical round-robin placement — the placement-oblivious baseline the placed plan
  // had to beat. Equal to `seconds` when no placement was adopted.
  double unplaced_seconds = 0.0;
};

// Per-variable partition search (the PartitionPlan generalization of section 3.2):
//
//   1. uniform sweep — SearchPartitions over measure(Uniform(p)) brackets the shared
//      optimum and fits Equation 1;
//   2. closed-form seed — the fitted continuous optimum sqrt(theta1/theta2) is spread
//      across variables by their share of the serialized work: theta1 scales with the
//      rows a step touches (alpha_v * elements_v), theta2 is per-piece bookkeeping paid
//      by every variable alike, so P_v ~ P* * sqrt(w_v / mean(w));
//   3. coordinate descent — one variable at a time, the doubling/halving sweep of
//      SearchPartitions runs over measure(plan with that coordinate varied); the best
//      candidate is adopted iff it beats the incumbent by kCoordinateMargin, and the
//      descent stops after a full pass with no winning move (or kMaxCoordinateRounds);
//   4. placement (options.placement, on more than one machine) — a greedy seed assigns
//      each piece to the server machine minimizing the bottleneck *link utilization*
//      under a static traffic model (every worker machine pushes and pulls each piece
//      once per step, loading the server's NIC, each worker's NIC and, across racks,
//      both spine directions), then bounded busiest-to-idlest swaps refine on the
//      measured clock. The placed plan is adopted only if it measures strictly better
//      than round-robin at the same counts.
//
// measure(plan) must return the mean iteration time under that layout, simulated on
// `cluster`; the placement pass reads the cluster's machines, racks, NIC bandwidth and
// spine bandwidth, and nothing else does. All measurements are memoized by the searched
// variables' counts and placements, so revisited plans cost nothing. The procedure is
// deterministic: same inputs, same plan.
PartitionPlanSearchResult SearchPartitionPlan(
    const std::function<double(const PartitionPlan&)>& measure,
    const std::vector<PartitionSearchVariable>& variables, const ClusterSpec& cluster,
    const PartitionSearchOptions& options);

}  // namespace parallax

#endif  // PARALLAX_SRC_CORE_COST_MODEL_H_
