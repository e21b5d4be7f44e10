#include "src/tensor/sparse_workspace.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/base/logging.h"

namespace parallax {
namespace {

// Below this size a cache-resident comparison sort beats the radix passes.
constexpr int64_t kComparisonSortCutoff = 2048;

// Segment reduction goes parallel only past this many touched elements; below it the
// ParallelFor handoff costs more than the loop.
constexpr int64_t kParallelElementThreshold = 1 << 15;

constexpr int kRadixBits = 8;
constexpr int64_t kRadixBuckets = int64_t{1} << kRadixBits;

}  // namespace

void SparseWorkspace::SortRangeByKey(int64_t begin, int64_t end, int64_t max_key) {
  PX_CHECK_GE(max_key, 0);
  PX_CHECK_GE(begin, 0);
  PX_CHECK_LE(begin, end);
  PX_CHECK_LE(end, static_cast<int64_t>(sort_keys_.size()));
  Resized(sort_pos_, static_cast<int64_t>(sort_keys_.size()));
  std::iota(sort_pos_.begin() + begin, sort_pos_.begin() + end, begin);
  const int64_t n = end - begin;
  if (n < 2) {
    return;
  }

  if (n < kComparisonSortCutoff) {
    // Indirect sort of the permutation; the position tiebreak makes it stable.
    std::sort(sort_pos_.begin() + begin, sort_pos_.begin() + end,
              [&](int64_t a, int64_t b) {
                if (sort_keys_[static_cast<size_t>(a)] != sort_keys_[static_cast<size_t>(b)]) {
                  return sort_keys_[static_cast<size_t>(a)] <
                         sort_keys_[static_cast<size_t>(b)];
                }
                return a < b;
              });
    Resized(alt_keys_, static_cast<int64_t>(sort_keys_.size()));
    for (int64_t i = begin; i < end; ++i) {
      alt_keys_[static_cast<size_t>(i)] =
          sort_keys_[static_cast<size_t>(sort_pos_[static_cast<size_t>(i)])];
    }
    if (begin == 0 && end == static_cast<int64_t>(sort_keys_.size())) {
      std::swap(sort_keys_, alt_keys_);  // full range: swap beats copy-back
    } else {
      std::copy(alt_keys_.begin() + begin, alt_keys_.begin() + end,
                sort_keys_.begin() + begin);
    }
    return;
  }

  // LSD radix over 8-bit digits: stable by construction. Ping-pong between the sort and
  // alt buffers; constant digits are detected via the histogram and skipped. Subrange
  // sorts leave the untouched remainder of the buffers intact (copy-back, no swap).
  Resized(alt_keys_, static_cast<int64_t>(sort_keys_.size()));
  Resized(alt_pos_, static_cast<int64_t>(sort_keys_.size()));
  Resized(histogram_, kRadixBuckets);
  std::vector<int64_t>* keys = &sort_keys_;
  std::vector<int64_t>* pos = &sort_pos_;
  std::vector<int64_t>* keys_out = &alt_keys_;
  std::vector<int64_t>* pos_out = &alt_pos_;
  for (int shift = 0; (max_key >> shift) != 0; shift += kRadixBits) {
    std::fill(histogram_.begin(), histogram_.end(), 0);
    for (int64_t i = begin; i < end; ++i) {
      ++histogram_[static_cast<size_t>(((*keys)[static_cast<size_t>(i)] >> shift) &
                                       (kRadixBuckets - 1))];
    }
    bool constant_digit = false;
    for (int64_t b = 0; b < kRadixBuckets; ++b) {
      if (histogram_[static_cast<size_t>(b)] == n) {
        constant_digit = true;
        break;
      }
    }
    if (constant_digit) {
      continue;
    }
    int64_t running = begin;
    for (int64_t b = 0; b < kRadixBuckets; ++b) {
      int64_t count = histogram_[static_cast<size_t>(b)];
      histogram_[static_cast<size_t>(b)] = running;
      running += count;
    }
    for (int64_t i = begin; i < end; ++i) {
      int64_t key = (*keys)[static_cast<size_t>(i)];
      int64_t dst = histogram_[static_cast<size_t>((key >> shift) & (kRadixBuckets - 1))]++;
      (*keys_out)[static_cast<size_t>(dst)] = key;
      (*pos_out)[static_cast<size_t>(dst)] = (*pos)[static_cast<size_t>(i)];
    }
    std::swap(keys, keys_out);
    std::swap(pos, pos_out);
  }
  if (keys != &sort_keys_) {
    if (begin == 0 && end == static_cast<int64_t>(sort_keys_.size())) {
      std::swap(sort_keys_, alt_keys_);  // full range: swap beats copy-back
      std::swap(sort_pos_, alt_pos_);
    } else {
      std::copy(alt_keys_.begin() + begin, alt_keys_.begin() + end,
                sort_keys_.begin() + begin);
      std::copy(alt_pos_.begin() + begin, alt_pos_.begin() + end,
                sort_pos_.begin() + begin);
    }
  }
}

const std::vector<int64_t>& SparseWorkspace::BuildSegmentsInRanges(
    const std::vector<int64_t>& range_starts) {
  PX_CHECK_GE(range_starts.size(), 2u);
  PX_CHECK_EQ(range_starts.front(), 0);
  const int64_t n = range_starts.back();
  PX_CHECK_LE(n, static_cast<int64_t>(sort_keys_.size()));
  segment_starts_.clear();
  for (size_t r = 0; r + 1 < range_starts.size(); ++r) {
    const int64_t begin = range_starts[r];
    const int64_t end = range_starts[r + 1];
    PX_CHECK_LE(begin, end);
    for (int64_t i = begin; i < end; ++i) {
      // A range boundary always opens a segment: keys in different ranges belong to
      // different key spaces even when their values coincide.
      if (i == begin ||
          sort_keys_[static_cast<size_t>(i)] != sort_keys_[static_cast<size_t>(i - 1)]) {
        segment_starts_.push_back(i);
      }
    }
  }
  segment_starts_.push_back(n);
  return segment_starts_;
}

void SparseWorkspace::Release() {
  sort_keys_ = {};
  sort_pos_ = {};
  alt_keys_ = {};
  alt_pos_ = {};
  segment_starts_ = {};
  histogram_ = {};
  row_ptrs_ = {};
}

int64_t SparseWorkspace::RetainedBytes() const {
  auto bytes = [](const auto& v) {
    return static_cast<int64_t>(v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type));
  };
  return bytes(sort_keys_) + bytes(sort_pos_) + bytes(alt_keys_) + bytes(alt_pos_) +
         bytes(segment_starts_) + bytes(histogram_) + bytes(row_ptrs_);
}

void ParallelOverSegments(const SparseWorkspace& workspace, int64_t num_segments,
                          int64_t total_elements,
                          const std::function<void(int64_t, int64_t)>& fn) {
  if (num_segments <= 0) {
    return;
  }
  ThreadPool& pool = workspace.pool();
  if (pool.num_threads() <= 1 || total_elements < kParallelElementThreshold) {
    fn(0, num_segments);
    return;
  }
  // Aim each chunk at ~16K elements of reduction work so handoff overhead stays small.
  int64_t elements_per_segment =
      std::max<int64_t>(1, total_elements / std::max<int64_t>(num_segments, 1));
  int64_t grain = std::max<int64_t>(1, (int64_t{1} << 14) / elements_per_segment);
  pool.ParallelFor(num_segments, grain, fn);
}

}  // namespace parallax
