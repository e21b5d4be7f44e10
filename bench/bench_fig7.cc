// Figure 7 reproduction: convergence (quality metric vs wall-clock time) of Parallax,
// TF-PS, and Horovod on the image-classification and NLP workloads.
//
// Construction (DESIGN.md): the *learning curves* come from really training the small
// surrogate models through each architecture's numeric engine (PS accumulators, AR
// collectives, hybrid) — synchronous SGD makes the per-iteration curves coincide, which
// the engine-equivalence tests verify. The *time axis* is each framework's simulated
// iteration time on the corresponding paper-scale model manifest (ResNet-50 @48 GPUs,
// LM @36, NMT @24, as in section 6.2). Reported: time to reach the quality target and
// the Parallax speedup ratios (paper: ~1.5x/1.0x ResNet-50, 2.6x/5.9x LM, 1.7x/2.3x NMT
// vs TF-PS/Horovod respectively).
#include <cstdio>
#include <functional>

#include "bench/bench_util.h"
#include "src/ar/ar_numeric.h"
#include "src/base/rng.h"
#include "src/core/api.h"
#include "src/core/frameworks.h"
#include "src/models/model_zoo.h"
#include "src/models/trainable.h"
#include "src/ps/ps_numeric.h"

namespace parallax {
namespace {

constexpr int kRanks = 8;  // data-parallel ranks (learning curves are scale-free)
constexpr float kLr = 0.5f;

struct EngineCurve {
  std::vector<double> metric_per_eval;  // one entry per eval interval
  int iterations_to_target = -1;
};

// Trains with a step callback: apply(grads) -> values the workers see next.
template <typename Model, typename Metric>
EngineCurve TrainCurve(Model& model, int max_iters, int eval_every, double target,
                       bool lower_is_better, Metric metric,
                       const std::function<VariableStore()>& values,
                       const std::function<void(const std::vector<StepResult>&)>& apply) {
  Executor executor(model.graph());
  Rng data_rng(4242);
  EngineCurve curve;
  for (int iter = 0; iter < max_iters; ++iter) {
    VariableStore view = values();
    std::vector<FeedMap> shards = model.TrainShards(kRanks, data_rng);
    std::vector<StepResult> grads;
    grads.reserve(kRanks);
    for (int r = 0; r < kRanks; ++r) {
      grads.push_back(executor.RunStep(view, shards[static_cast<size_t>(r)], model.loss()));
    }
    apply(grads);
    if ((iter + 1) % eval_every == 0) {
      Rng eval_rng(99);  // fixed held-out stream
      double value = metric(values(), eval_rng);
      curve.metric_per_eval.push_back(value);
      bool reached = lower_is_better ? value <= target : value >= target;
      if (reached && curve.iterations_to_target < 0) {
        curve.iterations_to_target = iter + 1;
      }
    }
  }
  return curve;
}

struct FrameworkTimes {
  double tfps;
  double horovod;
  double parallax;
};

FrameworkTimes IterationSeconds(const ModelSpec& manifest, int machines) {
  ClusterSpec cluster = ClusterSpec::Paper();
  cluster.num_machines = machines;
  FrameworkOptions options;
  options.sparse_partitions = manifest.name == "NMT" ? 64 : 128;
  FrameworkTimes times;
  times.tfps = MakeFrameworkSimulator(Framework::kTfPs, cluster, manifest, options)
                   .MeasureIterationSeconds();
  times.horovod = MakeFrameworkSimulator(Framework::kHorovod, cluster, manifest, options)
                      .MeasureIterationSeconds();
  times.parallax = MakeFrameworkSimulator(Framework::kParallax, cluster, manifest, options)
                       .MeasureIterationSeconds();
  return times;
}

void Report(const char* name, const char* metric_name, const EngineCurve& ps_curve,
            const EngineCurve& ar_curve, const EngineCurve& px_curve,
            const FrameworkTimes& seconds, double paper_vs_tf, double paper_vs_hvd) {
  std::printf("\n--- %s (target metric: %s) ---\n", name, metric_name);
  auto minutes = [](int iters, double per_iter) { return iters * per_iter / 60.0; };
  if (ps_curve.iterations_to_target < 0 || ar_curve.iterations_to_target < 0 ||
      px_curve.iterations_to_target < 0) {
    std::printf("  target not reached within the iteration budget\n");
    return;
  }
  double t_tf = minutes(ps_curve.iterations_to_target, seconds.tfps);
  double t_hvd = minutes(ar_curve.iterations_to_target, seconds.horovod);
  double t_px = minutes(px_curve.iterations_to_target, seconds.parallax);
  std::printf("  iterations to target: TF-PS %d, Horovod %d, Parallax %d (synchronous\n"
              "  SGD: per-step curves coincide across engines)\n",
              ps_curve.iterations_to_target, ar_curve.iterations_to_target,
              px_curve.iterations_to_target);
  std::printf("  simulated time to target: TF-PS %.2f min, Horovod %.2f min, "
              "Parallax %.2f min\n", t_tf, t_hvd, t_px);
  PrintClaim("time-to-target speedup vs TF-PS", t_tf / t_px, paper_vs_tf);
  PrintClaim("time-to-target speedup vs Horovod", t_hvd / t_px, paper_vs_hvd);
}

void RunLm() {
  WordLmModel model({.vocab_size = 800, .embedding_dim = 24, .hidden_dim = 32,
                     .batch_per_rank = 48, .seed = 501});
  auto metric = [&](const VariableStore& values, Rng& rng) {
    return model.EvalPerplexity(values, 2, rng);
  };
  const double target = 100.0;  // perplexity (paper target for the real LM: 47.5)
  const int max_iters = 150;
  const int eval_every = 5;

  PsNumericEngine ps(model.graph(), PsNumericConfig{});
  EngineCurve ps_curve = TrainCurve(
      model, max_iters, eval_every, target, true, metric,
      [&] { return ps.CurrentValues(); },
      [&](const std::vector<StepResult>& g) { ps.ApplyStep(g, kLr); });

  ArNumericEngine ar(model.graph());
  EngineCurve ar_curve = TrainCurve(
      model, max_iters, eval_every, target, true, metric,
      [&] { return ar.View(); },
      [&](const std::vector<StepResult>& g) { ar.ApplyStep(g, kLr); });

  ParallaxConfig config;
  config.learning_rate = kLr;
  GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(4, 2), config);
  Executor executor(model.graph());
  Rng data_rng(4242);
  EngineCurve px_curve;
  for (int iter = 0; iter < max_iters; ++iter) {
    runner.Step(model.TrainShards(kRanks, data_rng));
    if ((iter + 1) % eval_every == 0) {
      Rng eval_rng(99);
      double value = metric(runner.WorkerView(), eval_rng);
      px_curve.metric_per_eval.push_back(value);
      if (value <= target && px_curve.iterations_to_target < 0) {
        px_curve.iterations_to_target = iter + 1;
      }
    }
  }

  Report("LM (36 GPUs)", "test perplexity", ps_curve, ar_curve, px_curve,
         IterationSeconds(LmSpec(), 6), 2.6, 5.9);
}

void RunNmt() {
  NmtSurrogateModel model({.vocab_size = 600, .embedding_dim = 20, .hidden_dim = 32,
                           .batch_per_rank = 48, .seed = 502});
  auto metric = [&](const VariableStore& values, Rng& rng) {
    return model.EvalTokenAccuracy(values, 2, rng);
  };
  const double target = 0.45;  // token accuracy (BLEU stand-in; see DESIGN.md)
  const int max_iters = 150;
  const int eval_every = 5;

  PsNumericEngine ps(model.graph(), PsNumericConfig{});
  EngineCurve ps_curve = TrainCurve(
      model, max_iters, eval_every, target, false, metric,
      [&] { return ps.CurrentValues(); },
      [&](const std::vector<StepResult>& g) { ps.ApplyStep(g, kLr); });

  ArNumericEngine ar(model.graph());
  EngineCurve ar_curve = TrainCurve(
      model, max_iters, eval_every, target, false, metric,
      [&] { return ar.View(); },
      [&](const std::vector<StepResult>& g) { ar.ApplyStep(g, kLr); });

  ParallaxConfig config;
  config.learning_rate = kLr;
  GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(4, 2), config);
  Rng data_rng(4242);
  EngineCurve px_curve;
  for (int iter = 0; iter < max_iters; ++iter) {
    runner.Step(model.TrainShards(kRanks, data_rng));
    if ((iter + 1) % eval_every == 0) {
      Rng eval_rng(99);
      double value = metric(runner.WorkerView(), eval_rng);
      px_curve.metric_per_eval.push_back(value);
      if (value >= target && px_curve.iterations_to_target < 0) {
        px_curve.iterations_to_target = iter + 1;
      }
    }
  }

  Report("NMT (24 GPUs)", "token accuracy (BLEU stand-in)", ps_curve, ar_curve, px_curve,
         IterationSeconds(NmtSpec(), 4), 1.7, 2.3);
}

void RunResNet() {
  MlpClassifierModel model({.feature_dims = 24, .num_classes = 10, .hidden_dim = 48,
                            .batch_per_rank = 48, .seed = 503});
  auto metric = [&](const VariableStore& values, Rng& rng) {
    return model.EvalTop1Error(values, 2, rng);
  };
  const double target = 10.0;  // top-1 error % (paper target for real ResNet-50: 23.74%)
  const int max_iters = 150;
  const int eval_every = 5;

  PsNumericEngine ps(model.graph(), PsNumericConfig{});
  EngineCurve ps_curve = TrainCurve(
      model, max_iters, eval_every, target, true, metric,
      [&] { return ps.CurrentValues(); },
      [&](const std::vector<StepResult>& g) { ps.ApplyStep(g, kLr); });

  ArNumericEngine ar(model.graph());
  EngineCurve ar_curve = TrainCurve(
      model, max_iters, eval_every, target, true, metric,
      [&] { return ar.View(); },
      [&](const std::vector<StepResult>& g) { ar.ApplyStep(g, kLr); });

  ParallaxConfig config;
  config.learning_rate = kLr;
  GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(4, 2), config);
  Rng data_rng(4242);
  EngineCurve px_curve;
  for (int iter = 0; iter < max_iters; ++iter) {
    runner.Step(model.TrainShards(kRanks, data_rng));
    if ((iter + 1) % eval_every == 0) {
      Rng eval_rng(99);
      double value = metric(runner.WorkerView(), eval_rng);
      px_curve.metric_per_eval.push_back(value);
      if (value <= target && px_curve.iterations_to_target < 0) {
        px_curve.iterations_to_target = iter + 1;
      }
    }
  }

  Report("ResNet-50 (48 GPUs)", "top-1 error %", ps_curve, ar_curve, px_curve,
         IterationSeconds(ResNet50Spec(), 8), 1.5, 1.0);
}

}  // namespace
}  // namespace parallax

int main() {
  parallax::PrintHeading(
      "Figure 7: convergence — real training curves, simulated time axis");
  parallax::RunResNet();
  parallax::RunLm();
  parallax::RunNmt();
  return 0;
}
