#include "src/sync/compression.h"

#include <algorithm>
#include <cmath>

#include "src/base/logging.h"

namespace parallax {

void TopKSelectRows(std::span<const int64_t> rows, std::span<const float> scores,
                    int64_t k, std::vector<int64_t>& selected,
                    std::vector<int64_t>* scratch) {
  PX_CHECK_EQ(rows.size(), scores.size());
  selected.clear();
  const int64_t n = static_cast<int64_t>(rows.size());
  if (k <= 0 || n == 0) {
    return;
  }
  if (k >= n) {
    selected.assign(rows.begin(), rows.end());
    std::sort(selected.begin(), selected.end());
    return;
  }
  std::vector<int64_t> local;
  std::vector<int64_t>& pos = scratch != nullptr ? *scratch : local;
  // Candidate permutation in the scratch: partition the positions around the k-th
  // candidate under the total order (score desc, row asc). The order is strict across
  // distinct candidates, so the selected set — and with it the ascending output — is
  // unique no matter how nth_element arranges equal-ranked duplicates.
  pos.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    pos[static_cast<size_t>(i)] = i;
  }
  auto better = [&](int64_t a, int64_t b) {
    const float sa = scores[static_cast<size_t>(a)];
    const float sb = scores[static_cast<size_t>(b)];
    if (sa != sb) {
      return sa > sb;
    }
    return rows[static_cast<size_t>(a)] < rows[static_cast<size_t>(b)];
  };
  std::nth_element(pos.begin(), pos.begin() + static_cast<size_t>(k - 1),
                   pos.begin() + static_cast<size_t>(n), better);
  selected.reserve(static_cast<size_t>(k));
  for (int64_t i = 0; i < k; ++i) {
    selected.push_back(rows[static_cast<size_t>(pos[static_cast<size_t>(i)])]);
  }
  std::sort(selected.begin(), selected.end());
}

void QuantizeDequantizeInt8Rows(std::span<const float> src, std::span<float> dst,
                                int64_t rows, int64_t row_width,
                                std::vector<float>* scales) {
  PX_CHECK_EQ(static_cast<int64_t>(src.size()), rows * row_width);
  PX_CHECK_EQ(src.size(), dst.size());
  if (scales != nullptr) {
    scales->resize(static_cast<size_t>(rows));
  }
  for (int64_t r = 0; r < rows; ++r) {
    const float* in = src.data() + r * row_width;
    float* out = dst.data() + r * row_width;
    float maxabs = 0.0f;
    for (int64_t j = 0; j < row_width; ++j) {
      maxabs = std::max(maxabs, std::abs(in[j]));
    }
    const float scale = maxabs / 127.0f;
    if (scales != nullptr) {
      (*scales)[static_cast<size_t>(r)] = scale;
    }
    if (scale == 0.0f) {
      std::fill(out, out + row_width, 0.0f);
      continue;
    }
    for (int64_t j = 0; j < row_width; ++j) {
      const float q = std::clamp(std::nearbyintf(in[j] / scale), -127.0f, 127.0f);
      out[j] = q * scale;
    }
  }
}

}  // namespace parallax
