#include "src/core/cost_model.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <utility>

#include "src/base/logging.h"
#include "src/base/stats.h"
#include "src/base/thread_pool.h"

namespace parallax {

int EffectiveSearchWorkers(const SearchConcurrency& concurrency, size_t candidates) {
  if (concurrency.pool == nullptr || candidates == 0) {
    return 1;
  }
  int workers = concurrency.pool->num_threads();
  if (concurrency.max_workers > 0) {
    workers = std::min(workers, concurrency.max_workers);
  }
  workers = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(std::max(workers, 1)), candidates));
  return std::max(workers, 1);
}

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

// What a candidate costs to simulate: its PS piece count. The simulator's task graph,
// and with it the simulation's wall time, grows with the pieces (docs/perf.md,
// "Parallel partition search").
int PieceCount(int partitions) { return partitions; }
int PieceCount(const PlanKey& key) {
  return std::accumulate(key.first.begin(), key.first.end(), 0);
}

// The wave admission rule, shared by every wave site: a speculative candidate joins a
// wave only if it costs at most the requested candidate (the wave's first). With a
// lane per candidate the wave then takes no longer than the requested candidate alone,
// so a miss never waits on a costlier layout the serial trajectory may not ask for.
// On a landscape rising in P those are exactly the layouts it never asks for: from
// P = 4 on two lanes, unfiltered waves would be {4,8}, {2,16} and {1,32}, and the two
// costliest, P = 16 and 32, would go unused. Placement trials keep the requested
// trial's counts, so they are always admitted.
template <typename Candidate>
bool JoinsWave(const Candidate& candidate, const Candidate& requested) {
  return PieceCount(candidate) <= PieceCount(requested);
}

// Every point the doubling/halving sweep of SearchPartitions could visit from these
// options, ordered for SPECULATION: the clamped initial first, then the two arms
// interleaved by distance from it (x2, /2, x4, /4, ...). A wave of W candidates taken
// in this order covers the next rungs of BOTH arms — the points the serial sweep is
// most likely to request — before the far doubling rungs, which are reached only on
// long monotone runs. Prefetching the raw sweep order instead would spend a 4-wide
// wave on {P, 2P, 4P, 8P} when the sweep usually stops after one rise. JoinsWave then
// filters this order: rungs costlier than the requested one wait until the sweep asks.
std::vector<int> SpeculationOrder(const PartitionSearchOptions& options) {
  const int initial = std::clamp(options.initial_partitions, options.min_partitions,
                                 options.max_partitions);
  std::vector<int> up;
  for (int p = initial * 2; p <= options.max_partitions; p *= 2) {
    up.push_back(p);
  }
  std::vector<int> down;
  for (int p = initial / 2; p >= options.min_partitions; p /= 2) {
    down.push_back(p);
  }
  std::vector<int> order;
  order.reserve(1 + up.size() + down.size());
  order.push_back(initial);
  for (size_t i = 0; i < std::max(up.size(), down.size()); ++i) {
    if (i < up.size()) {
      order.push_back(up[i]);
    }
    if (i < down.size()) {
      order.push_back(down[i]);
    }
  }
  return order;
}

// How many candidates one speculative wave may hold: the workers the configured
// concurrency can actually run (never fewer than 1 so a degenerate configuration
// still makes progress). Bounds speculative waste by the worker count — a wave never
// reaches past what the pool could simulate concurrently anyway.
int SpeculationLookahead(const SearchConcurrency& concurrency) {
  constexpr size_t kLookaheadCeiling = 64;  // waves wider than this buy nothing
  return std::max(EffectiveSearchWorkers(concurrency, kLookaheadCeiling), 1);
}

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
  if (options.coordinate_margin < 0.0 || options.max_coordinate_rounds < 1) {
    return Status::InvalidArgument(
        "coordinate_margin must be >= 0 and max_coordinate_rounds >= 1");
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

PartitionSearchResult SearchPartitions(const std::function<double(int)>& measure,
                                       const UniformBatchMeasure& measure_batch,
                                       const PartitionSearchOptions& options) {
  // Degrade to the serial sweep when there is no batch measure — or when the
  // configured concurrency yields single-candidate waves, which would pay the batch
  // path's overhead (wave assembly, one batch call per memo miss) for no parallelism.
  if (!measure_batch || SpeculationLookahead(options.concurrency) <= 1) {
    return SearchPartitions(measure, options);
  }
  PX_CHECK_GE(options.min_partitions, 1);
  PX_CHECK_GE(options.max_partitions, options.min_partitions);

  const std::vector<int> order = SpeculationOrder(options);
  const int lookahead = SpeculationLookahead(options.concurrency);
  std::map<int, std::pair<double, bool>> memo;  // P -> (seconds, consumed)
  BatchMeasureStats stats;

  // On every memo miss, simulate the requested P plus the next lookahead-1 fresh
  // candidates in speculation order that JoinsWave admits, as one batch. The sweep
  // below then consumes the hits in its own (serial) order; early exits leave the tail
  // of the last wave unconsumed — that is the waste, bounded per wave by lookahead - 1.
  auto speculating_measure = [&](int p) {
    auto it = memo.find(p);
    if (it == memo.end()) {
      std::vector<int> wave{p};
      for (int q : order) {
        if (static_cast<int>(wave.size()) >= lookahead) {
          break;
        }
        if (q == p || memo.find(q) != memo.end() || !JoinsWave(q, p)) {
          continue;
        }
        wave.push_back(q);
      }
      const std::vector<double> seconds = measure_batch(wave);
      PX_CHECK_EQ(seconds.size(), wave.size());
      for (size_t i = 0; i < wave.size(); ++i) {
        memo.emplace(wave[i], std::make_pair(seconds[i], false));
      }
      ++stats.batches;
      stats.batched_evaluations += static_cast<int>(wave.size());
      stats.max_batch_size =
          std::max(stats.max_batch_size, static_cast<int>(wave.size()));
      it = memo.find(p);
    }
    it->second.second = true;
    return it->second.first;
  };

  PartitionSearchResult result = SearchPartitions(speculating_measure, options);
  result.batch = stats;
  for (const auto& [p, entry] : memo) {
    if (!entry.second) {
      ++result.batch.speculative_waste;
    }
  }
  return result;
}

namespace {

// seconds + how the entry got here. `requested` flips on the first time the serial
// adoption logic asks for the key — that is when `evaluations` counts it, so the
// counter matches the serial search exactly whether or not the value was prefetched.
// Entries that stay speculative-and-unrequested are the batch's overshoot
// (BatchMeasureStats::speculative_waste).
struct MemoEntry {
  double seconds = 0.0;
  bool requested = false;
  bool speculative = false;
};

}  // namespace

PartitionPlanSearchResult SearchPartitionPlan(
    const std::function<double(const PartitionPlan&)>& measure,
    const std::vector<PartitionSearchVariable>& variables,
    const PartitionSearchOptions& options) {
  return SearchPartitionPlan(measure, PlanBatchMeasure(), variables, options);
}

PartitionPlanSearchResult SearchPartitionPlan(
    const std::function<double(const PartitionPlan&)>& measure,
    const PlanBatchMeasure& measure_batch,
    const std::vector<PartitionSearchVariable>& variables,
    const PartitionSearchOptions& options) {
  if (measure_batch && SpeculationLookahead(options.concurrency) <= 1) {
    // Single-candidate waves buy nothing: drop the batch measure and run the plain
    // serial search (the in-tree factories already return a null measure for one-lane
    // concurrency; this guards direct callers of the batched overload).
    return SearchPartitionPlan(measure, PlanBatchMeasure(), variables, options);
  }
  PX_CHECK(!variables.empty()) << "per-variable search needs at least one variable";
  PX_CHECK_GE(options.min_partitions, 1);
  PX_CHECK_GE(options.max_partitions, options.min_partitions);
  PX_CHECK_GE(options.coordinate_margin, 0.0);
  PX_CHECK_GE(options.max_coordinate_rounds, 1);
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
  std::map<PlanKey, MemoEntry> measured;
  auto measure_placed = [&](const CountKey& counts, const Placements& placements) {
    PlanKey key{counts, placements};
    auto it = measured.find(key);
    if (it != measured.end()) {
      MemoEntry& entry = it->second;
      if (!entry.requested) {
        entry.requested = true;
        ++result.evaluations;
      }
      return entry.seconds;
    }
    double seconds = measure(plan_of(counts, placements));
    ++result.evaluations;
    measured.emplace(std::move(key), MemoEntry{seconds, true, false});
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
  const int lookahead = SpeculationLookahead(options.concurrency);
  // Wave speculation: when the serial logic is about to miss on `requested`, simulate
  // it plus the first lookahead-1 fresh candidates among candidate(0..count-1) that
  // JoinsWave admits, in one measure_batch call, and file the results as memo entries.
  // The serial logic downstream then finds hits for the candidates it would have
  // measured one by one; candidates its early exits never reach stay unrequested and
  // are reported as waste, bounded per wave by the worker count. A no-op without a
  // batch measure — the serial path never speculates.
  auto speculate = [&](PlanKey requested, size_t count, const auto& candidate) {
    if (!measure_batch || measured.find(requested) != measured.end()) {
      return;
    }
    std::vector<PlanKey> wave;
    wave.push_back(std::move(requested));
    for (size_t i = 0; i < count && static_cast<int>(wave.size()) < lookahead; ++i) {
      PlanKey key = candidate(i);
      if (measured.find(key) == measured.end() && JoinsWave(key, wave.front()) &&
          std::find(wave.begin(), wave.end(), key) == wave.end()) {
        wave.push_back(std::move(key));
      }
    }
    std::vector<PartitionPlan> plans;
    plans.reserve(wave.size());
    for (const PlanKey& key : wave) {
      plans.push_back(plan_of(key.first, key.second));
    }
    const std::vector<double> seconds = measure_batch(plans);
    PX_CHECK_EQ(seconds.size(), plans.size());
    for (size_t i = 0; i < wave.size(); ++i) {
      measured.emplace(std::move(wave[i]), MemoEntry{seconds[i], false, true});
    }
    ++result.batch.batches;
    result.batch.batched_evaluations += static_cast<int>(plans.size());
    result.batch.max_batch_size =
        std::max(result.batch.max_batch_size, static_cast<int>(plans.size()));
  };
  // One sweep's wave: candidate p first, then the sweep's speculation order.
  auto wave_before = [&](const std::vector<int>& order,
                         const std::function<CountKey(int)>& counts_of, int p) {
    speculate(PlanKey{counts_of(p), Placements()}, order.size(),
              [&](size_t i) { return PlanKey{counts_of(order[i]), Placements()}; });
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
    const std::vector<int> uniform_order =
        measure_batch ? SpeculationOrder(options) : std::vector<int>();
    result.uniform = SearchPartitions(
        [&](int p) {
          wave_before(uniform_order, [&](int q) { return uniform_counts(q); }, p);
          return measure_counts(uniform_counts(p));
        },
        options);
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
  for (int round = 0; round < options.max_coordinate_rounds; ++round) {
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
      const std::vector<int> coordinate_order =
          measure_batch ? SpeculationOrder(coordinate) : std::vector<int>();
      PartitionSearchResult sweep = SearchPartitions(
          [&](int p) {
            wave_before(coordinate_order, coordinate_counts, p);
            return measure_counts(coordinate_counts(p));
          },
          coordinate);
      CountKey trial = best;
      trial[v] = clamp_count(sweep.best_partitions, v);
      const double trial_seconds = measure_counts(trial);
      if (trial_seconds < best_seconds * (1.0 - options.coordinate_margin)) {
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
  const PlacementSearchOptions& pl = options.placement;
  if (pl.enabled && pl.num_machines > 1) {
    const int machines = pl.num_machines;
    const int racks =
        (pl.num_racks > 1 && machines % pl.num_racks == 0) ? pl.num_racks : 1;
    const int per_rack = machines / racks;
    auto rack_of = [per_rack](int m) { return m / per_rack; };

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
        worst = std::max(worst, bytes / pl.nic_bandwidth);
      }
      for (double bytes : spine_load) {
        worst = std::max(worst, bytes / pl.spine_bandwidth);
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
    for (int round = 0; round < pl.max_swap_rounds; ++round) {
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
      // This round's swap candidates, in scan order (bounded by max_swap_trials).
      // They are independent given the incumbent placement, so waves of them simulate
      // concurrently; the serial first-win scan replays over the memo, and trials
      // past the winning one (within its wave) are the speculation the round wastes.
      std::vector<const Piece*> round_pieces;
      for (const Piece& piece : pieces) {
        if (placed[piece.var][piece.index] != busiest) {
          continue;
        }
        if (static_cast<int>(round_pieces.size()) >= pl.max_swap_trials) {
          break;
        }
        round_pieces.push_back(&piece);
      }
      auto trial_of = [&](const Piece& piece) {
        Placements trial = placed;
        trial[piece.var][piece.index] = idlest;
        return trial;
      };
      bool moved = false;
      for (size_t t = 0; t < round_pieces.size(); ++t) {
        Placements trial = trial_of(*round_pieces[t]);
        speculate(PlanKey{best, trial}, round_pieces.size() - t - 1, [&](size_t i) {
          return PlanKey{best, trial_of(*round_pieces[t + 1 + i])};
        });
        const double seconds = measure_placed(best, trial);
        if (seconds < placed_seconds * (1.0 - pl.swap_margin)) {
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

  for (const auto& [key, entry] : measured) {
    if (entry.speculative && !entry.requested) {
      ++result.batch.speculative_waste;
    }
  }
  result.plan = plan_of(best, best_placements);
  result.seconds = best_seconds;
  return result;
}

}  // namespace parallax
