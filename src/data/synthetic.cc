#include "src/data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/base/logging.h"
#include "src/tensor/tensor_ops.h"

namespace parallax {

double AlphaSchedule::ValueAt(int64_t step) const {
  if (knots.empty()) {
    return 1.0;
  }
  if (step <= knots.front().step) {
    return knots.front().value;
  }
  if (step >= knots.back().step) {
    return knots.back().value;
  }
  for (size_t k = 1; k < knots.size(); ++k) {
    if (step <= knots[k].step) {
      const Knot& lo = knots[k - 1];
      const Knot& hi = knots[k];
      PX_CHECK_GT(hi.step, lo.step) << "schedule knots must ascend by step";
      const double t = static_cast<double>(step - lo.step) /
                       static_cast<double>(hi.step - lo.step);
      return lo.value + t * (hi.value - lo.value);
    }
  }
  return knots.back().value;  // unreachable: the back() test above covers it
}

ZipfBigramText::ZipfBigramText(Options options)
    : options_(options), sampler_(options.vocab_size, options.zipf_exponent) {
  PX_CHECK_GT(options_.vocab_size, 1);
  permutation_.resize(static_cast<size_t>(options_.vocab_size));
  std::iota(permutation_.begin(), permutation_.end(), 0);
  // Fisher-Yates with the dataset's own deterministic stream.
  Rng rng(options_.seed);
  for (int64_t i = options_.vocab_size - 1; i > 0; --i) {
    int64_t j = static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(i + 1)));
    std::swap(permutation_[static_cast<size_t>(i)], permutation_[static_cast<size_t>(j)]);
  }
}

int64_t ZipfBigramText::ActiveVocab(int64_t step) const {
  const double fraction = options_.active_fraction.ValueAt(step);
  const int64_t active = static_cast<int64_t>(
      std::ceil(fraction * static_cast<double>(options_.vocab_size)));
  return std::clamp<int64_t>(active, 1, options_.vocab_size);
}

TokenBatch ZipfBigramText::Sample(int64_t n, Rng& rng, int64_t step) const {
  const int64_t active = ActiveVocab(step);
  // The truncated sampler is the Zipf conditional on id < active — the head/tail
  // shape *within* the prefix is preserved — at one uniform draw per token however
  // small the active fraction is.
  auto sample_active = [&] { return sampler_.SampleBounded(rng, active); };
  std::vector<int64_t> ids(static_cast<size_t>(n));
  std::vector<int64_t> labels(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    int64_t id = sample_active();
    ids[static_cast<size_t>(i)] = id;
    if (rng.NextDouble() < options_.noise) {
      labels[static_cast<size_t>(i)] = sample_active();
    } else {
      labels[static_cast<size_t>(i)] = permutation_[static_cast<size_t>(id)];
    }
  }
  TokenBatch batch;
  batch.ids = Tensor::FromIndices(std::move(ids), TensorShape({n}));
  batch.labels = Tensor::FromIndices(std::move(labels), TensorShape({n}));
  return batch;
}

int64_t ZipfBigramText::TrueNext(int64_t id) const {
  PX_CHECK_GE(id, 0);
  PX_CHECK_LT(id, options_.vocab_size);
  return permutation_[static_cast<size_t>(id)];
}

ClusteredImages::ClusteredImages(Options options) : options_(options) {
  Rng rng(options_.seed);
  centers_ = RandomNormal(TensorShape({options_.num_classes, options_.feature_dims}), rng,
                          1.0f);
}

ImageBatch ClusteredImages::Sample(int64_t n, Rng& rng) const {
  Tensor features = Tensor::Zeros(TensorShape({n, options_.feature_dims}));
  std::vector<int64_t> labels(static_cast<size_t>(n));
  auto f = features.mutable_floats();
  auto c = centers_.floats();
  const size_t dims = static_cast<size_t>(options_.feature_dims);
  for (int64_t i = 0; i < n; ++i) {
    int64_t label = static_cast<int64_t>(rng.NextBounded(
        static_cast<uint64_t>(options_.num_classes)));
    labels[static_cast<size_t>(i)] = label;
    // The row's noise, drawn after its label, then its class centre added.
    std::span<float> row = f.subspan(static_cast<size_t>(i) * dims, dims);
    RandomNormalInto(row, rng, static_cast<float>(options_.cluster_stddev));
    auto center = c.subspan(static_cast<size_t>(label) * dims, dims);
    for (size_t d = 0; d < dims; ++d) {
      row[d] = center[d] + row[d];
    }
  }
  ImageBatch batch;
  batch.features = std::move(features);
  batch.labels = Tensor::FromIndices(std::move(labels), TensorShape({n}));
  return batch;
}

}  // namespace parallax
