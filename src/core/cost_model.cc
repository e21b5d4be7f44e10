#include "src/core/cost_model.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "src/base/logging.h"
#include "src/base/stats.h"

namespace parallax {

namespace {

// Searched variables' counts, in input order.
using CountKey = std::vector<int>;
// Searched variables' shard placements, parallel to CountKey; an empty inner vector
// (or an empty outer vector) means the historical round-robin.
using Placements = std::vector<std::vector<int>>;
// One measurement cache entry is keyed by counts + placements; everything else about
// the plan is fixed across the search. Count-only phases always pass empty placements,
// so placement-oblivious searches pay nothing for the wider key.
using PlanKey = std::pair<CountKey, Placements>;

}  // namespace

double CostModelFit::ContinuousOptimum() const {
  if (theta1 <= 0.0 || theta2 <= 0.0) {
    return 1.0;
  }
  return std::sqrt(theta1 / theta2);
}

CostModelFit FitCostModel(const std::vector<std::pair<int, double>>& samples) {
  CostModelFit fit;
  if (samples.size() < 3) {
    return fit;
  }
  std::vector<std::array<double, 3>> features;
  std::vector<double> targets;
  features.reserve(samples.size());
  targets.reserve(samples.size());
  for (const auto& [partitions, seconds] : samples) {
    double p = static_cast<double>(partitions);
    features.push_back({1.0, 1.0 / p, p});
    targets.push_back(seconds);
  }
  LeastSquaresFit ls = FitLinear3(features, targets);
  if (!ls.ok) {
    return fit;
  }
  fit.theta0 = ls.theta[0];
  fit.theta1 = ls.theta[1];
  fit.theta2 = ls.theta[2];
  fit.rmse = ls.rmse;
  fit.ok = true;
  return fit;
}

Status ValidateSearchOptions(const PartitionSearchOptions& options) {
  if (options.min_partitions < 1 || options.max_partitions < options.min_partitions) {
    return Status::InvalidArgument(
        "min_partitions must be >= 1 and max_partitions >= min_partitions");
  }
  return Status::Ok();
}

PartitionSearchResult SearchPartitions(const std::function<double(int)>& measure,
                                       const PartitionSearchOptions& options) {
  PX_CHECK_GE(options.min_partitions, 1);
  PX_CHECK_GE(options.max_partitions, options.min_partitions);
  PartitionSearchResult result;

  auto sample = [&](int partitions) {
    double seconds = measure(partitions);
    result.samples.emplace_back(partitions, seconds);
    return seconds;
  };

  const int initial = std::clamp(options.initial_partitions, options.min_partitions,
                                 options.max_partitions);
  double initial_seconds = sample(initial);

  // Double until iteration time starts increasing (paper section 3.2).
  double previous = initial_seconds;
  for (int p = initial * 2; p <= options.max_partitions; p *= 2) {
    double seconds = sample(p);
    if (seconds > previous) {
      break;
    }
    previous = seconds;
  }
  // Halve from the initial point until it starts increasing.
  previous = initial_seconds;
  for (int p = initial / 2; p >= options.min_partitions; p /= 2) {
    double seconds = sample(p);
    if (seconds > previous) {
      break;
    }
    previous = seconds;
  }

  result.fit = FitCostModel(result.samples);

  int sampled_min = result.samples.front().first;
  int sampled_max = result.samples.front().first;
  for (const auto& [p, unused] : result.samples) {
    sampled_min = std::min(sampled_min, p);
    sampled_max = std::max(sampled_max, p);
  }

  if (!result.fit.ok) {
    // Too few samples to fit; fall back to the best measurement.
    auto best = std::min_element(
        result.samples.begin(), result.samples.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    result.best_partitions = best->first;
    result.predicted_seconds = best->second;
    return result;
  }

  // The critical point lies inside the sampled interval (convexity), so evaluating the
  // fitted model there never extrapolates. Candidates: the continuous optimum's integer
  // neighbours plus every sampled point.
  std::vector<int> candidates;
  double continuous = std::clamp(result.fit.ContinuousOptimum(),
                                 static_cast<double>(sampled_min),
                                 static_cast<double>(sampled_max));
  candidates.push_back(std::max(options.min_partitions, static_cast<int>(continuous)));
  candidates.push_back(
      std::min(options.max_partitions, static_cast<int>(std::ceil(continuous))));
  for (const auto& [p, unused] : result.samples) {
    candidates.push_back(p);
  }
  int best = candidates.front();
  double best_pred = result.fit.Predict(best);
  for (int candidate : candidates) {
    double pred = result.fit.Predict(candidate);
    if (pred < best_pred) {
      best_pred = pred;
      best = candidate;
    }
  }
  result.best_partitions = best;
  result.predicted_seconds = best_pred;
  return result;
}

PartitionPlanSearchResult SearchPartitionPlan(
    const std::function<double(const PartitionPlan&)>& measure,
    const std::vector<PartitionSearchVariable>& variables, const ClusterSpec& cluster,
    const PartitionSearchOptions& options) {
  PX_CHECK(!variables.empty()) << "per-variable search needs at least one variable";
  PX_CHECK_GE(options.min_partitions, 1);
  PX_CHECK_GE(options.max_partitions, options.min_partitions);
  const size_t n = variables.size();

  auto cap_of = [&](size_t v) {
    int cap = options.max_partitions;
    if (variables[v].max_partitions > 0) {
      cap = static_cast<int>(std::min<int64_t>(cap, variables[v].max_partitions));
    }
    return std::max(cap, options.min_partitions);
  };
  auto clamp_count = [&](int p, size_t v) {
    return std::clamp(p, options.min_partitions, cap_of(v));
  };
  auto plan_of = [&](const CountKey& counts, const Placements& placements) {
    PartitionPlan plan;  // default 1: variables outside the search stay whole
    for (size_t v = 0; v < n; ++v) {
      plan.Set(variables[v].name, counts[v]);
      if (!placements.empty() && !placements[v].empty()) {
        plan.SetPlacement(variables[v].name, placements[v]);
      }
    }
    return plan;
  };

  PartitionPlanSearchResult result;
  std::map<PlanKey, double> measured;
  auto measure_placed = [&](const CountKey& counts, const Placements& placements) {
    PlanKey key{counts, placements};
    auto it = measured.find(key);
    if (it != measured.end()) {
      return it->second;
    }
    double seconds = measure(plan_of(counts, placements));
    measured.emplace(std::move(key), seconds);
    return seconds;
  };
  auto measure_counts = [&](const CountKey& counts) {
    return measure_placed(counts, Placements());
  };
  auto uniform_counts = [&](int p) {
    CountKey counts(n);
    for (size_t v = 0; v < n; ++v) {
      counts[v] = clamp_count(p, v);
    }
    return counts;
  };

  CountKey best;
  double best_seconds = 0.0;

  bool warm = options.warm_start;
  for (size_t v = 0; v < n && warm; ++v) {
    warm = variables[v].previous_partitions > 0;
  }
  if (warm) {
    // Warm start — the previous adopted plan replaces phases 1 and 2 outright: descent
    // resumes from its counts, and the baseline the refined plan must beat is the
    // previous plan itself (the honest comparison for a mid-training re-search).
    result.warm_started = true;
    best.resize(n);
    for (size_t v = 0; v < n; ++v) {
      best[v] = clamp_count(variables[v].previous_partitions, v);
    }
    best_seconds = measure_counts(best);
    result.uniform_seconds = best_seconds;
  } else {
    // Phase 1 — uniform sweep: the paper's doubling/halving search over a shared P
    // (per-variable caps applied, exactly as the assigner would row-cap a uniform plan).
    result.uniform = SearchPartitions(
        [&](int p) { return measure_counts(uniform_counts(p)); }, options);
    best = uniform_counts(result.uniform.best_partitions);
    best_seconds = measure_counts(best);
    result.uniform_seconds = best_seconds;

    // Phase 2 — closed-form seed at each variable's measured alpha. theta1 (the cost
    // partitioning divides) is proportional to the rows a step actually touches, so
    // variable v carries a w_v = alpha_v * elements_v share of it; theta2 (per-piece
    // bookkeeping) is paid per piece regardless of which variable the piece belongs to.
    // Splitting Equation 1 accordingly puts variable v's own optimum at
    // sqrt(theta1_v / theta2_v) = P* * sqrt(w_v / mean(w)).
    double continuous = result.uniform.fit.ok
                            ? result.uniform.fit.ContinuousOptimum()
                            : static_cast<double>(result.uniform.best_partitions);
    continuous = std::clamp(continuous, static_cast<double>(options.min_partitions),
                            static_cast<double>(options.max_partitions));
    double weight_sum = 0.0;
    for (const PartitionSearchVariable& variable : variables) {
      weight_sum += std::max(variable.alpha, 0.0) *
                    static_cast<double>(std::max<int64_t>(variable.num_elements, 0));
    }
    if (weight_sum > 0.0) {
      const double mean_weight = weight_sum / static_cast<double>(n);
      CountKey seeded(n);
      for (size_t v = 0; v < n; ++v) {
        const double w =
            std::max(variables[v].alpha, 0.0) *
            static_cast<double>(std::max<int64_t>(variables[v].num_elements, 0));
        const double scaled = continuous * std::sqrt(w / mean_weight);
        seeded[v] = clamp_count(static_cast<int>(std::lround(std::max(scaled, 1.0))), v);
      }
      const double seeded_seconds = measure_counts(seeded);
      if (seeded_seconds < best_seconds) {
        best = std::move(seeded);
        best_seconds = seeded_seconds;
      }
    }
  }

  // Phase 3 — coordinate descent: the existing doubling/halving sweep is the inner
  // loop, run for one variable at a time with every other count pinned. Adopting only
  // margin-beating moves on *measured* times keeps the descent deterministic and
  // terminating (each adoption strictly shrinks the measured objective). A warm-started
  // round 0 sweeps only the drifted variables — the others' counts were right last time
  // and nothing about them changed; later rounds (reached only if round 0 moved) sweep
  // everything, because a drifted variable's new count can shift its neighbours'.
  for (int round = 0; round < kMaxCoordinateRounds; ++round) {
    bool moved = false;
    for (size_t v = 0; v < n; ++v) {
      if (result.warm_started && round == 0 && !variables[v].drifted) {
        continue;
      }
      PartitionSearchOptions coordinate = options;
      coordinate.initial_partitions = best[v];
      coordinate.max_partitions = cap_of(v);
      auto coordinate_counts = [&](int p) {
        CountKey trial = best;
        trial[v] = clamp_count(p, v);
        return trial;
      };
      PartitionSearchResult sweep = SearchPartitions(
          [&](int p) { return measure_counts(coordinate_counts(p)); }, coordinate);
      CountKey trial = best;
      trial[v] = clamp_count(sweep.best_partitions, v);
      const double trial_seconds = measure_counts(trial);
      if (trial_seconds < best_seconds * (1.0 - kCoordinateMargin)) {
        best = std::move(trial);
        best_seconds = trial_seconds;
        moved = true;
      }
    }
    ++result.rounds;
    if (!moved) {
      break;
    }
  }

  // Phase 4 — placement (optional): greedily seed each piece onto the server that
  // minimizes the bottleneck link utilization under the static traffic model, refine
  // with bounded busiest-to-idlest swaps on the measured clock, and adopt only if the
  // placed plan measures strictly better than round-robin at the same counts.
  Placements best_placements;
  result.unplaced_seconds = best_seconds;
  if (options.placement && cluster.num_machines > 1) {
    const Topology topology(cluster);
    const int machines = cluster.num_machines;
    const int racks = topology.num_racks();
    auto rack_of = [&topology](int m) { return topology.RackOfMachine(m); };

    // Every piece of every searched variable, heaviest traffic first. Per step each
    // worker machine pushes and pulls a piece once, so a piece of b bytes loads its
    // server's NIC with 2b per remote worker (the incast), each remote worker's NIC
    // with 2b, and — when server and worker sit in different racks — both racks' spine
    // links with 2b each.
    struct Piece {
      size_t var;
      int index;
      double bytes;
    };
    std::vector<Piece> pieces;
    for (size_t v = 0; v < n; ++v) {
      const double bytes =
          std::max(variables[v].alpha, 0.0) *
          static_cast<double>(std::max<int64_t>(variables[v].num_elements, 0)) * 4.0 /
          static_cast<double>(best[v]);
      for (int p = 0; p < best[v]; ++p) {
        pieces.push_back({v, p, bytes});
      }
    }
    std::stable_sort(pieces.begin(), pieces.end(),
                     [](const Piece& a, const Piece& b) { return a.bytes > b.bytes; });

    std::vector<double> nic(machines, 0.0);
    std::vector<double> spine(racks, 0.0);
    auto add_piece = [&](std::vector<double>& nic_load, std::vector<double>& spine_load,
                         int server, double bytes) {
      for (int m = 0; m < machines; ++m) {
        if (m == server) {
          continue;
        }
        nic_load[server] += 2.0 * bytes;
        nic_load[m] += 2.0 * bytes;
        if (racks > 1 && rack_of(m) != rack_of(server)) {
          spine_load[rack_of(server)] += 2.0 * bytes;
          spine_load[rack_of(m)] += 2.0 * bytes;
        }
      }
    };
    auto bottleneck = [&](const std::vector<double>& nic_load,
                          const std::vector<double>& spine_load) {
      double worst = 0.0;
      for (double bytes : nic_load) {
        worst = std::max(worst, bytes / cluster.nic_bandwidth);
      }
      for (double bytes : spine_load) {
        worst = std::max(worst, bytes / cluster.topology.spine_bandwidth);
      }
      return worst;
    };

    Placements placed(n);
    for (size_t v = 0; v < n; ++v) {
      placed[v].assign(best[v], 0);
    }
    std::vector<double> trial_nic, trial_spine;
    for (const Piece& piece : pieces) {
      int chosen = 0;
      double chosen_worst = std::numeric_limits<double>::infinity();
      for (int s = 0; s < machines; ++s) {
        trial_nic = nic;
        trial_spine = spine;
        add_piece(trial_nic, trial_spine, s, piece.bytes);
        const double worst = bottleneck(trial_nic, trial_spine);
        if (worst < chosen_worst) {  // strict: ties keep the lowest server id
          chosen_worst = worst;
          chosen = s;
        }
      }
      add_piece(nic, spine, chosen, piece.bytes);
      placed[piece.var][piece.index] = chosen;
    }

    double placed_seconds = measure_placed(best, placed);

    // Swap refinement: move a piece off the statically busiest NIC onto the idlest and
    // keep the move only when the simulated clock agrees by the margin.
    for (int round = 0; round < kMaxSwapRounds; ++round) {
      int busiest = 0;
      int idlest = 0;
      for (int m = 1; m < machines; ++m) {
        if (nic[m] > nic[busiest]) {
          busiest = m;
        }
        if (nic[m] < nic[idlest]) {
          idlest = m;
        }
      }
      if (busiest == idlest) {
        break;
      }
      // Trial the busiest server's pieces in scan order (at most kMaxSwapTrials of
      // them); the first move that wins by the margin is kept.
      bool moved = false;
      int trials = 0;
      for (const Piece& piece : pieces) {
        if (placed[piece.var][piece.index] != busiest) {
          continue;
        }
        if (trials++ >= kMaxSwapTrials) {
          break;
        }
        Placements trial = placed;
        trial[piece.var][piece.index] = idlest;
        const double seconds = measure_placed(best, trial);
        if (seconds < placed_seconds * (1.0 - kSwapMargin)) {
          placed = std::move(trial);
          placed_seconds = seconds;
          moved = true;
          break;
        }
      }
      if (!moved) {
        break;
      }
      std::fill(nic.begin(), nic.end(), 0.0);
      std::fill(spine.begin(), spine.end(), 0.0);
      for (const Piece& piece : pieces) {
        add_piece(nic, spine, placed[piece.var][piece.index], piece.bytes);
      }
    }

    if (placed_seconds < best_seconds) {
      best_placements = std::move(placed);
      best_seconds = placed_seconds;
    }
  }

  result.evaluations = static_cast<int>(measured.size());
  result.plan = plan_of(best, best_placements);
  result.seconds = best_seconds;
  return result;
}

}  // namespace parallax
