// pxbench — the repository benchmark driver (README.md next to this file describes the
// workloads, the metrics and the trace).
//
//   pxbench --workload lm|skew|lm-pooled --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// One run measures three things a user of Parallax waits for:
//
//   set-up    build a training session and finish its first step (variable sampling,
//             sparsity analysis, the startup partition search, engine preparation);
//             repeated several times, reported as the median;
//   training  GraphRunner::Step on that session, one fresh mini-batch shard per replica;
//   tenants   the same set-up for sessions that share one PlannerService through
//             RunnerBuilder::WithPlanner: the first session of a model family misses
//             the plan cache and the service runs the search, the second is a hit.
//
// --trace 0 times the public calls only and prints the end-to-end metrics. --trace 1
// drives the training step one layer at a time from the outside — the data generator,
// the Executor, each SyncEngine, the IterationSimulator — records a span around every
// call, checks that the layered replay reproduces what the runner computes, and prints
// per-layer metrics. Spans are kept in memory and written as a Chrome trace at exit.
//
// The last line of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Inputs derive from --seed only; the same seed gives the same inputs.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/core/api.h"
#include "src/core/iteration_sim.h"
#include "src/models/trainable.h"
#include "src/service/planner_service.h"

namespace pxbench {
namespace {

using namespace parallax;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

// Operations per window of the floor estimator: one chunk of training steps.
constexpr size_t kWindow = 8;

// The floor of a run's timings: the smallest median over consecutive, non-overlapping
// windows of kWindow operations (a trailing partial window is ignored). Interference from
// other processes on a shared host only ever adds time, and it comes and goes over
// seconds, so a run's least-disturbed window is what another run reproduces; a slower
// program moves every window, the floor included. A cost that hits fewer than half of a
// window's operations (periodic or tail work) does not reach the floor.
double Floor(const std::vector<double>& values) {
  if (values.size() < kWindow) {
    return Median(values);
  }
  double floor = Median({values.begin(), values.begin() + kWindow});
  for (size_t i = kWindow; i + kWindow <= values.size(); i += kWindow) {
    floor = std::min(floor, Median({values.begin() + i, values.begin() + i + kWindow}));
  }
  return floor;
}

// ---- Tracing -------------------------------------------------------------------------

// In-memory span recorder. A span has a name, a start and an end, the span that was open
// when it began (its parent), and a request id shared by every span of one operation
// (a training step, a session set-up, a tenant's set-up).
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    int64_t request = 0;
    double start = 0.0;  // seconds since the tracer was created
    double end = 0.0;
    double duration() const { return end - start; }
  };

  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, int64_t request) : tracer_(tracer) {
      if (tracer_ != nullptr) {
        index_ = tracer_->Open(std::move(name), request);
      }
    }
    ~Scope() {
      if (tracer_ != nullptr) {
        tracer_->Close(index_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  Tracer() : origin_(Clock::now()) {}

  // Per request, the summed duration of every span called `name` (seconds).
  std::vector<double> PerRequest(const std::string& name) const {
    return Collect(name, false);
  }
  // Same, with each span's self time: its duration minus that of its direct children.
  std::vector<double> SelfPerRequest(const std::string& name) const {
    return Collect(name, true);
  }

  // Chrome trace-event format (chrome://tracing, Perfetto): complete events with the
  // span id, parent and request in args.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      return false;
    }
    std::fprintf(file, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(file,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"request\":%lld}}\n",
                   i == 0 ? "" : ",", span.name.c_str(), span.start * 1e6,
                   span.duration() * 1e6, i, span.parent,
                   static_cast<long long>(span.request));
    }
    std::fprintf(file, "]}\n");
    return std::fclose(file) == 0;
  }

 private:
  int Open(std::string name, int64_t request) {
    Span span;
    span.name = std::move(name);
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.request = request;
    span.start = Now();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void Close(int index) {
    spans_[static_cast<size_t>(index)].end = Now();
    stack_.pop_back();
  }
  double Now() const { return SecondsSince(origin_); }

  std::vector<double> Collect(const std::string& name, bool self) const {
    std::vector<double> child_time(spans_.size(), 0.0);
    if (self) {
      for (const Span& span : spans_) {
        if (span.parent >= 0) {
          child_time[static_cast<size_t>(span.parent)] += span.duration();
        }
      }
    }
    std::map<int64_t, double> totals;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) {
        totals[spans_[i].request] += spans_[i].duration() - child_time[i];
      }
    }
    std::vector<double> out;
    for (const auto& [request, total] : totals) {
      out.push_back(total);
    }
    return out;
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---- Models and workloads ------------------------------------------------------------

// The trainable models behind one interface: a graph, its loss, and per-replica feeds.
class BenchModel {
 public:
  virtual ~BenchModel() = default;
  virtual Graph* graph() = 0;
  virtual NodeId loss() const = 0;
  virtual std::vector<FeedMap> Shards(int num_ranks, Rng& rng) const = 0;
};

template <typename Model>
class ModelAdapter : public BenchModel {
 public:
  explicit ModelAdapter(typename Model::Options options) : model_(options) {}
  Graph* graph() override { return model_.graph(); }
  NodeId loss() const override { return model_.loss(); }
  std::vector<FeedMap> Shards(int num_ranks, Rng& rng) const override {
    return model_.TrainShards(num_ranks, rng);
  }

 private:
  Model model_;
};

// Every session, tenants included, trains on 4 machines x 2 GPUs. A replica's
// forward/backward is simulated in 4 chunks.
constexpr int kMachines = 4;
constexpr int kGpusPerMachine = 2;
constexpr int kComputeChunks = 4;

// Model families of the tenant mix (see Tenants).
constexpr int kFamilies = 4;

struct Workload {
  std::string name;
  std::function<std::unique_ptr<BenchModel>(uint64_t seed)> make_model;
  // The tenants' models, one per family 0..kFamilies-1.
  std::function<std::unique_ptr<BenchModel>(int family, uint64_t seed)> make_tenant_model;
  // Bandwidths, cores and rack structure; machine and GPU counts come from the above.
  ClusterSpec hardware = ClusterSpec::Paper();
  PartitionSearchMode search_mode = PartitionSearchMode::kUniform;
  bool search_placement = false;
  SyncCostParams costs;
  double gpu_compute_seconds = 4e-3;
  float learning_rate = 0.1f;
  // Whether the data carry a signal the model can learn, so the loss must fall.
  bool learns = true;
  // Lanes of the sparse-kernel pool (PARALLAX_THREADS) and of the tenants'
  // PlannerService. One lane keeps timings independent of how many cores the host has
  // free; more exercise the parallel paths.
  int lanes = 1;
};

// lm: a word-level language model (two vocabulary-sized sparse embeddings on parameter
// servers, dense hidden weights on AllReduce) on 4 machines x 2 GPUs with the uniform
// partition search — the paper's hybrid architecture. The tenant families are those of
// examples/multi_tenant.cpp.
Workload LmWorkload() {
  Workload w;
  w.name = "lm";
  w.make_model = [](uint64_t seed) -> std::unique_ptr<BenchModel> {
    return std::make_unique<ModelAdapter<WordLmModel>>(WordLmModel::Options{
        .vocab_size = 2000, .embedding_dim = 32, .hidden_dim = 48, .batch_per_rank = 32,
        .seed = seed});
  };
  w.make_tenant_model = [](int family, uint64_t seed) -> std::unique_ptr<BenchModel> {
    return std::make_unique<ModelAdapter<WordLmModel>>(WordLmModel::Options{
        .vocab_size = 400 + 100 * family, .embedding_dim = 16 + 4 * family,
        .hidden_dim = 24, .batch_per_rank = 32, .seed = seed});
  };
  w.learning_rate = 0.5f;
  return w;
}

// lm-pooled: lm on two lanes — sparse kernels on the shared kernel pool and a
// PlannerService whose misses simulate candidate waves in parallel. Two rather than the
// default of one lane per hardware thread, so that a run does the same work on every
// host and leaves cores free: with every core taken, a run's timings follow whatever
// else the host is running.
Workload LmPooledWorkload() {
  Workload w = LmWorkload();
  w.name = "lm-pooled";
  w.lanes = 2;
  return w;
}

// skew: two sparse variables with skewed access ratios on 2 racks x 2 machines x 2 GPUs
// behind an oversubscribed spine, with the per-variable partition search plus shard
// placement — the heaviest planning path. Tenant families scale both tables.
Workload SkewWorkload() {
  Workload w;
  w.name = "skew";
  w.make_model = [](uint64_t seed) -> std::unique_ptr<BenchModel> {
    EmbeddingSkewModel::Options options;
    options.batch_per_rank = 64;
    options.seed = seed;
    return std::make_unique<ModelAdapter<EmbeddingSkewModel>>(options);
  };
  w.make_tenant_model = [](int family, uint64_t seed) -> std::unique_ptr<BenchModel> {
    EmbeddingSkewModel::Options options;
    options.hot_vocab = 2048 * (1 + family);
    options.wide_vocab = 128 + 64 * family;
    options.batch_per_rank = 64;
    options.seed = seed;
    return std::make_unique<ModelAdapter<EmbeddingSkewModel>>(options);
  };
  w.hardware.topology.num_racks = 2;
  w.search_mode = PartitionSearchMode::kPerVariable;
  w.search_placement = true;
  // Accumulation-dominated servers and a per-piece client dispatch cost: the regime in
  // which the two variables want different partition counts.
  w.costs.sparse_agg_seconds_per_element = 400e-9;
  w.costs.sparse_update_seconds_per_element = 20e-9;
  w.costs.sparse_flush_seconds_per_element = 2e-9;
  w.costs.worker_dispatch_seconds_per_piece = 150e-6;
  w.gpu_compute_seconds = 1e-3;
  w.learning_rate = 0.1f;
  // Its ids and classes are drawn independently: the model exists for its access
  // pattern, and its loss stays at chance.
  w.learns = false;
  return w;
}

IterationSimConfig SimConfigFor(const Workload& w) {
  // What the runner simulates with local aggregation on (its default).
  IterationSimConfig config;
  config.ps_local_aggregation = true;
  config.ps_machine_level_pulls = true;
  config.costs = w.costs;
  return config;
}

struct Session {
  std::unique_ptr<BenchModel> model;
  std::unique_ptr<GraphRunner> runner;
  float first_loss = 0.0f;
};

// Counts operations (a set-up, a step, a tenant, a run-level check) and the ones
// that failed their correctness check.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (errors.size() < 8) {
        errors.push_back(what);
      }
    }
  }
};

// The seeds of a run's model initialisation, data stream and tenant mix, all derived from
// --seed: the same seed gives the same inputs, and every set-up of one run is identical.
struct Seeds {
  uint64_t model;
  uint64_t data;
  uint64_t tenants;
  explicit Seeds(uint64_t seed) {
    uint64_t state = seed;
    model = SplitMix64(state) % 100000 + 1;
    data = SplitMix64(state);
    tenants = SplitMix64(state);
  }
};

// The workload's session configuration; tenants add WithPlanner.
RunnerBuilder SessionBuilder(const Workload& w, BenchModel* model) {
  RunnerBuilder builder(model->graph(), model->loss());
  builder.WithResources(ResourceSpec::Homogeneous(kMachines, kGpusPerMachine))
      .WithHardware(w.hardware)
      .WithSearchMode(w.search_mode)
      .WithPlacementSearch(w.search_placement)
      .WithSyncCosts(w.costs)
      .WithCompute(w.gpu_compute_seconds, kComputeChunks)
      .WithLearningRate(w.learning_rate);
  return builder;
}

// One session set-up: model construction, RunnerBuilder::Build, and the first Step
// (which samples, analyses, searches and prepares). Returns wall seconds; a failed Build
// leaves session->runner null and its status in *status.
double SetUpSession(const Workload& w, const Seeds& seeds, Tracer* tracer, int64_t request,
                    Session* session, Status* status) {
  const Clock::time_point start = Clock::now();
  Tracer::Scope setup(tracer, "setup", request);
  {
    Tracer::Scope span(tracer, "setup.model", request);
    session->model = w.make_model(seeds.model);
  }
  {
    Tracer::Scope span(tracer, "setup.build", request);
    auto runner_or = SessionBuilder(w, session->model.get()).Build();
    *status = runner_or.status();
    if (!runner_or.ok()) {
      return SecondsSince(start);
    }
    session->runner = std::move(runner_or.value());
  }
  Rng data(seeds.data);
  std::vector<FeedMap> feeds = session->model->Shards(session->runner->num_ranks(), data);
  {
    Tracer::Scope span(tracer, "setup.first_step", request);
    session->first_loss = session->runner->Step(feeds);
  }
  return SecondsSince(start);
}

// Number of candidate layouts the startup search simulated (0 when none ran).
int StartupEvaluations(const GraphRunner& runner) {
  if (runner.plan_search().has_value()) {
    return runner.plan_search()->evaluations;
  }
  if (runner.partition_search().has_value()) {
    return static_cast<int>(runner.partition_search()->samples.size());
  }
  return 0;
}

// ---- The run -------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

// Training on one session, a chunk of steps at a time. Untraced: times GraphRunner::Step.
// Traced: replays each step one layer at a time on the session's own engines (data ->
// view -> compute -> sync per engine -> simulate) and steps a second, identical session
// through GraphRunner::Step on the same feeds; losses and simulated clocks must agree bit
// for bit.
class Trainer {
 public:
  Trainer(const Workload& w, const Seeds& seeds, Session* session, Session* reference,
          Tracer* tracer, Tally* tally)
      : w_(w),
        session_(session),
        reference_(reference),
        tracer_(tracer),
        tally_(tally),
        ranks_(session->runner->num_ranks()),
        data_(seeds.data),
        executor_(session->model->graph()),
        step_results_(static_cast<size_t>(ranks_)),
        cluster_spec_(session->runner->resources().ToClusterSpec(w.hardware)),
        simulator_(cluster_spec_, session->runner->plan().variables, w.gpu_compute_seconds,
                   kComputeChunks, SimConfigFor(w), &arena_),
        cluster_(cluster_spec_) {
    // Skip the batch the first step consumed, so training continues the data stream.
    (void)session_->model->Shards(ranks_, data_);
    for (const std::string& name : session_->runner->plan().engines) {
      if (std::find(engines_.begin(), engines_.end(), name) == engines_.end()) {
        engines_.push_back(name);
      }
    }
    if (tracer_ != nullptr) {
      bool synchronous = true;
      for (const std::string& name : engines_) {
        synchronous = synchronous && !session_->runner->engine(name)->SequentialArrival();
      }
      // Mirror the iteration the first step already simulated.
      clock_ = simulator_.SimulateIteration(cluster_, clock_);
      tally_->Check(synchronous && clock_ == session_->runner->simulated_seconds(),
                    "the layered replay needs synchronous engines and must start from the "
                    "runner's simulated clock");
    }
  }

  // Runs `steps` training steps; their wall times join step_seconds().
  void RunChunk(int steps) {
    for (int s = 0; s < steps; ++s) {
      ++step_;
      float loss = 0.0f;
      bool agrees = true;
      if (tracer_ == nullptr) {
        std::vector<FeedMap> feeds = session_->model->Shards(ranks_, data_);
        const Clock::time_point start = Clock::now();
        loss = session_->runner->Step(feeds);
        step_seconds_.push_back(SecondsSince(start));
      } else {
        const Clock::time_point start = Clock::now();
        std::vector<FeedMap> feeds;
        loss = LayeredStep(&feeds);
        float reference_loss = 0.0f;
        {
          Tracer::Scope span(tracer_, "runner_step", step_);
          reference_loss = reference_->runner->Step(feeds);
        }
        agrees = reference_loss == loss && reference_->runner->simulated_seconds() == clock_;
        step_seconds_.push_back(SecondsSince(start));
      }
      tally_->Check(std::isfinite(loss) && agrees,
                    "step " + std::to_string(step_) +
                        ": non-finite loss, or the layered replay's loss or simulated clock "
                        "differs from GraphRunner::Step");
      losses_.push_back(loss);
    }
  }

  // The model must learn: the mean loss of the last quarter of the steps is below that
  // of the first quarter.
  void CheckLearning() {
    const size_t quarter = losses_.size() / 4;
    double first = 0.0;
    double last = 0.0;
    for (size_t i = 0; i < quarter; ++i) {
      first += losses_[i];
      last += losses_[losses_.size() - 1 - i];
    }
    tally_->Check(quarter >= 5 && last < first,
                  "training loss did not fall (first quarter " + std::to_string(first) +
                      ", last quarter " + std::to_string(last) + ", " +
                      std::to_string(losses_.size()) + " steps)");
  }

  const std::vector<double>& step_seconds() const { return step_seconds_; }
  const std::vector<double>& grad_wire_bytes() const { return grad_wire_bytes_; }
  const std::vector<double>& nic_bytes() const { return nic_bytes_; }

 private:
  float LayeredStep(std::vector<FeedMap>* feeds) {
    GraphRunner& runner = *session_->runner;
    float loss = 0.0f;
    Tracer::Scope span(tracer_, "step", step_);
    {
      Tracer::Scope data_span(tracer_, "step.data", step_);
      *feeds = session_->model->Shards(ranks_, data_);
    }
    VariableStore view;
    {
      Tracer::Scope view_span(tracer_, "step.view", step_);
      for (const std::string& name : engines_) {
        VariableStore part = runner.engine(name)->View();
        for (const auto& [v, value] : part.values()) {
          view.Set(v, value);
        }
      }
    }
    {
      Tracer::Scope compute_span(tracer_, "step.compute", step_);
      for (int r = 0; r < ranks_; ++r) {
        executor_.RunStepInto(view, (*feeds)[static_cast<size_t>(r)],
                              session_->model->loss(), &scratch_,
                              &step_results_[static_cast<size_t>(r)]);
        loss += step_results_[static_cast<size_t>(r)].loss;
      }
      loss /= static_cast<float>(ranks_);
    }
    for (const std::string& name : engines_) {
      Tracer::Scope sync_span(tracer_, "step.sync." + name, step_);
      runner.engine(name)->ApplyStep(step_results_, w_.learning_rate);
    }
    {
      Tracer::Scope sim_span(tracer_, "step.simulate", step_);
      cluster_.ResetByteAccounting();
      clock_ = simulator_.SimulateIteration(cluster_, clock_);
    }
    double wire = 0.0;
    for (const StepResult& result : step_results_) {
      for (const auto& [v, grad] : result.grads) {
        wire += static_cast<double>(grad.WireBytes());
      }
    }
    grad_wire_bytes_.push_back(wire);
    double nic = 0.0;
    for (int m = 0; m < cluster_.num_machines(); ++m) {
      nic += static_cast<double>(cluster_.NicBytes(m));
    }
    nic_bytes_.push_back(nic);
    return loss;
  }

  const Workload& w_;
  Session* session_;
  Session* reference_;
  Tracer* tracer_;
  Tally* tally_;
  const int ranks_;
  Rng data_;
  int64_t step_ = 0;
  std::vector<float> losses_;
  std::vector<double> step_seconds_;

  // Layered replay state (traced runs only).
  std::vector<std::string> engines_;
  Executor executor_;
  ExecScratch scratch_;
  std::vector<StepResult> step_results_;
  ClusterSpec cluster_spec_;
  SimulationArena arena_;
  IterationSimulator simulator_;
  Cluster cluster_;
  SimTime clock_ = 0.0;
  std::vector<double> grad_wire_bytes_;
  std::vector<double> nic_bytes_;
};

// Per family, the fastest of its timings over the run's rounds (the same work every
// round), then the median over families.
double FamilyFloor(const std::vector<std::vector<double>>& per_family) {
  std::vector<double> fastest;
  for (const std::vector<double>& values : per_family) {
    if (!values.empty()) {
      fastest.push_back(*std::min_element(values.begin(), values.end()));
    }
  }
  return Median(fastest);
}

// Tenants: sessions of other jobs that share one PlannerService through
// RunnerBuilder::WithPlanner, set up one at a time, in rounds. The mix follows
// examples/multi_tenant.cpp: kFamilies model families, each submitted twice with the
// same model and data. The runner builds its own planning query in its first step, so
// the first tenant of a family misses the plan cache and the service runs the
// partition search, and the second is answered from the cache. Each round starts a
// fresh service. A tenant's timed set-up is RunnerBuilder::Build plus the first Step;
// its model and data are made outside the timed span.
class Tenants {
 public:
  Tenants(const Workload& w, const Seeds& seeds, Tracer* tracer, Tally* tally)
      : w_(w),
        seeds_(seeds),
        tracer_(tracer),
        tally_(tally),
        miss_seconds_(kFamilies),
        hit_seconds_(kFamilies),
        miss_first_step_(kFamilies),
        hit_first_step_(kFamilies),
        plans_(kFamilies),
        losses_(kFamilies) {}

  bool AtRoundStart() const { return service_ == nullptr; }
  // Rounds started; at a round start, also the rounds completed.
  int rounds() const { return rounds_; }

  // The next tenant's set-up; the last tenant of a round ends it.
  void Next() {
    if (service_ == nullptr) {
      PlannerServiceOptions options;
      options.max_workers = w_.lanes;
      service_ = std::make_shared<PlannerService>(options);
      next_ = 0;
      ++rounds_;
    }
    SetUp(next_ / 2, next_ % 2 == 0);
    if (++next_ == 2 * kFamilies) {
      const PlannerServiceStats stats = service_->stats();
      batched_.push_back(static_cast<double>(stats.batched_evaluations) / kFamilies);
      waste_.push_back(static_cast<double>(stats.speculative_waste) / kFamilies);
      service_.reset();
    }
  }

  // Per family, the wall seconds of each set-up that missed (one per round).
  const std::vector<std::vector<double>>& miss_seconds() const { return miss_seconds_; }
  // Per family, the wall seconds of each set-up that hit.
  const std::vector<std::vector<double>>& hit_seconds() const { return hit_seconds_; }
  // The same, of the first Step alone.
  const std::vector<std::vector<double>>& miss_first_step() const { return miss_first_step_; }
  const std::vector<std::vector<double>>& hit_first_step() const { return hit_first_step_; }
  // Per round, candidates the service simulated in parallel waves and how many of them
  // the search never used, per miss (0 on a one-lane service).
  const std::vector<double>& batched() const { return batched_; }
  const std::vector<double>& waste() const { return waste_; }

 private:
  void SetUp(int family, bool miss) {
    ++request_;
    const size_t f = static_cast<size_t>(family);
    std::unique_ptr<BenchModel> model =
        w_.make_tenant_model(family, seeds_.model + static_cast<uint64_t>(family) + 1);
    Tracer::Scope span(tracer_, miss ? "tenant.miss" : "tenant.hit", request_);
    const PlannerServiceStats before = service_->stats();
    Clock::time_point start = Clock::now();
    auto runner_or = SessionBuilder(w_, model.get()).WithPlanner(service_).Build();
    double seconds = SecondsSince(start);
    if (!runner_or.ok()) {
      tally_->Check(false, "tenant RunnerBuilder::Build: " + runner_or.status().ToString());
      return;
    }
    GraphRunner& runner = *runner_or.value();
    Rng data(seeds_.tenants + static_cast<uint64_t>(family));
    std::vector<FeedMap> feeds = model->Shards(runner.num_ranks(), data);
    float loss = 0.0f;
    start = Clock::now();
    {
      Tracer::Scope step(tracer_, "tenant.first_step", request_);
      loss = runner.Step(feeds);
    }
    const double first_step = SecondsSince(start);
    seconds += first_step;
    const PlannerServiceStats after = service_->stats();

    const std::string plan = runner.partition_plan().ToString();
    bool ok = std::isfinite(loss);
    if (miss) {
      ok = ok && after.searches == before.searches + 1 &&
           after.cache.hits == before.cache.hits;
      // Every round searches the same problem and must adopt the same plan.
      ok = ok && (rounds_ == 1 || (plan == plans_[f] && loss == losses_[f]));
      plans_[f] = plan;
      losses_[f] = loss;
      miss_seconds_[f].push_back(seconds);
      miss_first_step_[f].push_back(first_step);
    } else {
      ok = ok && after.searches == before.searches &&
           after.cache.hits == before.cache.hits + 1 && plan == plans_[f] &&
           loss == losses_[f];
      hit_seconds_[f].push_back(seconds);
      hit_first_step_[f].push_back(first_step);
    }
    tally_->Check(ok, std::string("tenant of family ") + std::to_string(family) +
                          (miss ? ": its query did not miss and search, or its plan or "
                                  "first loss differs from an earlier round"
                                : ": its query did not hit the cache, or its plan or first "
                                  "loss differs from the tenant that missed"));
  }

  const Workload& w_;
  const Seeds& seeds_;
  Tracer* tracer_;
  Tally* tally_;
  int rounds_ = 0;
  int next_ = 0;
  int64_t request_ = 0;
  std::shared_ptr<PlannerService> service_;
  std::vector<std::vector<double>> miss_seconds_;
  std::vector<std::vector<double>> hit_seconds_;
  std::vector<std::vector<double>> miss_first_step_;
  std::vector<std::vector<double>> hit_first_step_;
  std::vector<std::string> plans_;
  std::vector<float> losses_;
  std::vector<double> batched_;
  std::vector<double> waste_;
};

// Set-ups per run (the median is reported), and steps per training chunk — the unit the
// run interleaves with tenant set-ups and the floor estimator's window.
constexpr int kSetups = 25;
constexpr int kChunkSteps = static_cast<int>(kWindow);
// Fewest training steps a run makes, enough for the learning check to mean something.
constexpr size_t kMinSteps = 64;

std::string Metric(const std::string& name, double value, const std::string& unit) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), "\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                name.c_str(), value, unit.c_str());
  return buffer;
}

int Run(const Options& options) {
  std::map<std::string, Workload> workloads;
  for (Workload w : {LmWorkload(), SkewWorkload(), LmPooledWorkload()}) {
    workloads.emplace(w.name, std::move(w));
  }
  auto found = workloads.find(options.workload);
  if (found == workloads.end()) {
    std::fprintf(stderr, "unknown workload '%s' (lm, skew, lm-pooled)\n",
                 options.workload.c_str());
    return 2;
  }
  const Workload& w = found->second;
  // Read when the kernel pool first starts, which is after this.
  setenv("PARALLAX_THREADS", std::to_string(w.lanes).c_str(), 1);
  const Seeds seeds(options.seed);
  Tally tally;
  std::unique_ptr<Tracer> tracer = options.trace ? std::make_unique<Tracer>() : nullptr;

  // Set-up: identical sessions, built one after another. Every one must adopt the same
  // partition plan and compute the same first loss. The first two are kept — one to
  // train, one as the traced run's reference — and the rest are spread over the run.
  std::vector<double> setup_seconds;
  std::vector<double> startup_candidates;
  std::string first_plan;
  float first_loss = 0.0f;
  int setups = 0;
  auto set_up = [&](Session* session) {
    Status status = Status::Ok();
    ++setups;
    setup_seconds.push_back(SetUpSession(w, seeds, tracer.get(), setups, session, &status));
    if (session->runner == nullptr) {
      tally.Check(false, "RunnerBuilder::Build: " + status.ToString());
      return false;
    }
    startup_candidates.push_back(StartupEvaluations(*session->runner));
    if (setups == 1) {
      first_plan = session->runner->partition_plan().ToString();
      first_loss = session->first_loss;
    }
    tally.Check(session->runner->partition_plan().ToString() == first_plan &&
                    session->first_loss == first_loss && std::isfinite(first_loss),
                "set-up " + std::to_string(setups) + " is not deterministic");
    return true;
  };
  Session session;
  Session reference;
  if (!set_up(&session) || !set_up(&reference)) {
    for (const std::string& error : tally.errors) {
      std::fprintf(stderr, "check failed: %s\n", error.c_str());
    }
    return 1;
  }

  // The measured run: training chunks and tenant set-ups interleave, each getting half
  // the busy time, so both see the same host conditions; the remaining set-ups are
  // spread evenly.
  Trainer trainer(w, seeds, &session, &reference, tracer.get(), &tally);
  Tenants tenants(w, seeds, tracer.get(), &tally);
  double train_busy = 0.0;
  double plan_busy = 0.0;
  const Clock::time_point start = Clock::now();
  for (;;) {
    const double elapsed = SecondsSince(start);
    const bool time_left = elapsed < options.seconds;
    // Past the deadline, a run still completes its minimum of training and the tenant
    // round in progress (at least one).
    const bool train = time_left || trainer.step_seconds().size() < kMinSteps;
    const bool plan = time_left || !tenants.AtRoundStart() || tenants.rounds() == 0;
    if (!train && !plan) {
      break;
    }
    if (time_left && setups < kSetups &&
        elapsed >= options.seconds * (setups - 1) / (kSetups - 1)) {
      Session extra;
      set_up(&extra);
      continue;
    }
    const Clock::time_point t0 = Clock::now();
    if (train && (!plan || train_busy <= plan_busy)) {
      trainer.RunChunk(kChunkSteps);
      train_busy += SecondsSince(t0);
    } else {
      tenants.Next();
      plan_busy += SecondsSince(t0);
    }
  }
  if (w.learns) {
    trainer.CheckLearning();
  }
  for (const std::string& error : tally.errors) {
    std::fprintf(stderr, "check failed: %s\n", error.c_str());
  }

  const std::vector<double>& steps = trainer.step_seconds();
  std::fprintf(stderr,
               "%s seed %llu: %zu set-ups, %zu steps, %d tenant rounds; medians: set-up "
               "%.2f ms, step %.3f ms (p99 %.3f)\n",
               w.name.c_str(), static_cast<unsigned long long>(options.seed),
               setup_seconds.size(), steps.size(), tenants.rounds(),
               Median(setup_seconds) * 1e3, Median(steps) * 1e3,
               Percentile(steps, 0.99) * 1e3);

  std::vector<std::string> metrics;
  if (!options.trace) {
    metrics = {
        Metric("step_floor_ms", Floor(steps) * 1e3, "ms"),
        Metric("tenant_miss_ms", FamilyFloor(tenants.miss_seconds()) * 1e3, "ms"),
        Metric("tenant_hit_ms", FamilyFloor(tenants.hit_seconds()) * 1e3, "ms"),
        Metric("setup_s", Median(setup_seconds), "s"),
    };
  } else {
    const Tracer& t = *tracer;
    auto ms = [&](const std::string& name) { return Floor(t.PerRequest(name)) * 1e3; };
    // The planner's share of a missing tenant's first step: per family, the fastest
    // first step that missed less the fastest that hit.
    std::vector<double> search;
    for (size_t f = 0; f < static_cast<size_t>(kFamilies); ++f) {
      const std::vector<double>& miss = tenants.miss_first_step()[f];
      const std::vector<double>& hit = tenants.hit_first_step()[f];
      if (!miss.empty() && !hit.empty()) {
        search.push_back(*std::min_element(miss.begin(), miss.end()) -
                         *std::min_element(hit.begin(), hit.end()));
      }
    }
    metrics = {
        Metric("setup_model_ms", Median(t.PerRequest("setup.model")) * 1e3, "ms"),
        Metric("setup_build_ms", Median(t.PerRequest("setup.build")) * 1e3, "ms"),
        Metric("setup_first_step_ms", Median(t.PerRequest("setup.first_step")) * 1e3, "ms"),
        Metric("setup_search_candidates", Median(startup_candidates), "count"),
        Metric("runner_step_ms", ms("runner_step"), "ms"),
        Metric("step_data_ms", ms("step.data"), "ms"),
        Metric("step_view_ms", ms("step.view"), "ms"),
        Metric("step_compute_ms", ms("step.compute"), "ms"),
        Metric("step_sync_ps_ms", ms("step.sync.ps"), "ms"),
        Metric("step_sync_ar_ms", ms("step.sync.ar"), "ms"),
        Metric("step_simulate_ms", ms("step.simulate"), "ms"),
        Metric("step_self_ms", Floor(t.SelfPerRequest("step")) * 1e3, "ms"),
        Metric("grad_wire_kb", Median(trainer.grad_wire_bytes()) / 1e3, "KB"),
        Metric("sim_nic_mb", Median(trainer.nic_bytes()) / 1e6, "MB"),
        Metric("tenant_miss_first_step_ms", FamilyFloor(tenants.miss_first_step()) * 1e3,
               "ms"),
        Metric("tenant_hit_first_step_ms", FamilyFloor(tenants.hit_first_step()) * 1e3,
               "ms"),
        Metric("tenant_search_ms", Median(search) * 1e3, "ms"),
        Metric("tenant_batched_candidates", Median(tenants.batched()), "count"),
        Metric("tenant_speculative_waste", Median(tenants.waste()), "count"),
    };
    if (!options.trace_out.empty() && !t.WriteChromeTrace(options.trace_out)) {
      std::fprintf(stderr, "could not write trace to %s\n", options.trace_out.c_str());
    }
  }

  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "" : ", ") + metrics[i];
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::atof(value);
    } else if (flag == "--trace") {
      options->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      options->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty() && options->seconds > 0.0;
}

}  // namespace
}  // namespace pxbench

int main(int argc, char** argv) {
  pxbench::Options options;
  if (!pxbench::ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: pxbench --workload lm|skew|lm-pooled --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }
  parallax::SetMinLogLevel(parallax::LogSeverity::kWarning);
  return pxbench::Run(options);
}
