// Property tests for the gradient compression kernels (src/sync/compression.h):
// TopKSelectRows is pinned against a naive stable-sort reference across widths, k
// values, duplicate magnitudes, and ties; QuantizeDequantizeInt8Rows against its
// documented per-row error bound.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/sync/compression.h"

namespace parallax {
namespace {

// The reference implementation: stable-sort candidate positions by (score desc,
// row asc), take the first k rows, order the output ascending by row id. The kernel
// under test uses nth_element and must agree on the selected row multiset exactly —
// the (score, row) comparator is a total order over candidate *values*, so equal
// candidates are interchangeable and the multiset is well-defined.
std::vector<int64_t> ReferenceTopK(const std::vector<int64_t>& rows,
                                   const std::vector<float>& scores, int64_t k) {
  std::vector<size_t> order(rows.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (scores[a] != scores[b]) {
      return scores[a] > scores[b];
    }
    return rows[a] < rows[b];
  });
  k = std::clamp<int64_t>(k, 0, static_cast<int64_t>(rows.size()));
  std::vector<int64_t> selected;
  selected.reserve(static_cast<size_t>(k));
  for (int64_t i = 0; i < k; ++i) {
    selected.push_back(rows[order[static_cast<size_t>(i)]]);
  }
  std::sort(selected.begin(), selected.end());
  return selected;
}

void ExpectMatchesReference(const std::vector<int64_t>& rows,
                            const std::vector<float>& scores, int64_t k,
                            std::vector<int64_t>* scratch) {
  std::vector<int64_t> selected;
  TopKSelectRows(rows, scores, k, selected, scratch);
  EXPECT_EQ(selected, ReferenceTopK(rows, scores, k))
      << "n=" << rows.size() << " k=" << k;
  EXPECT_TRUE(std::is_sorted(selected.begin(), selected.end()));
}

TEST(TopKSelectRowsTest, MatchesSortReferenceAcrossWidthsAndK) {
  Rng rng(4201);
  std::vector<int64_t> scratch;
  for (int64_t n : {1, 2, 3, 7, 16, 63, 128, 1000}) {
    std::vector<int64_t> rows(static_cast<size_t>(n));
    std::vector<float> scores(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      rows[static_cast<size_t>(i)] = static_cast<int64_t>(rng.NextBounded(10000));
      scores[static_cast<size_t>(i)] =
          static_cast<float>(rng.NextUniform(0.0, 100.0));
    }
    for (int64_t k : {int64_t{0}, int64_t{1}, n / 3, n - 1, n, n + 5}) {
      ExpectMatchesReference(rows, scores, k, &scratch);
    }
  }
}

TEST(TopKSelectRowsTest, DuplicateMagnitudesBreakTiesByRowId) {
  // Every candidate scores identically: selection must degenerate to "the k smallest
  // row ids" — the documented (score desc, row asc) tie-break.
  std::vector<int64_t> rows = {42, 7, 99, 3, 55, 21};
  std::vector<float> scores(rows.size(), 2.5f);
  std::vector<int64_t> selected;
  TopKSelectRows(rows, scores, 3, selected);
  EXPECT_EQ(selected, (std::vector<int64_t>{3, 7, 21}));
  ExpectMatchesReference(rows, scores, 3, nullptr);
}

TEST(TopKSelectRowsTest, PartialTiesAtTheCutoff) {
  // Three candidates tie exactly at the k-th score; the tie-break must pick the
  // lowest row ids among them, deterministically.
  std::vector<int64_t> rows = {10, 20, 30, 40, 50};
  std::vector<float> scores = {9.0f, 1.0f, 1.0f, 1.0f, 5.0f};
  std::vector<int64_t> selected;
  TopKSelectRows(rows, scores, 3, selected);
  // 10 (9.0) and 50 (5.0) are in; of the 1.0-tie {20, 30, 40} only row 20 fits.
  EXPECT_EQ(selected, (std::vector<int64_t>{10, 20, 50}));
  ExpectMatchesReference(rows, scores, 3, nullptr);
}

TEST(TopKSelectRowsTest, DuplicateRowIdsCompeteIndependently) {
  // The engine never produces duplicate row ids, but the kernel's contract allows
  // them: each candidate competes on its own, and the selected multiset matches the
  // reference (row 5 appears twice when both its candidates make the cut).
  std::vector<int64_t> rows = {5, 8, 5, 2};
  std::vector<float> scores = {7.0f, 1.0f, 6.0f, 0.5f};
  std::vector<int64_t> selected;
  TopKSelectRows(rows, scores, 2, selected);
  EXPECT_EQ(selected, (std::vector<int64_t>{5, 5}));
  ExpectMatchesReference(rows, scores, 2, nullptr);
  ExpectMatchesReference(rows, scores, 3, nullptr);
}

TEST(TopKSelectRowsTest, KAtOrBeyondCandidateCountSelectsEverything) {
  std::vector<int64_t> rows = {9, 1, 4};
  std::vector<float> scores = {0.1f, 0.2f, 0.3f};
  std::vector<int64_t> selected;
  TopKSelectRows(rows, scores, 3, selected);
  EXPECT_EQ(selected, (std::vector<int64_t>{1, 4, 9}));
  TopKSelectRows(rows, scores, 1000, selected);
  EXPECT_EQ(selected, (std::vector<int64_t>{1, 4, 9}));
}

TEST(TopKSelectRowsTest, NonPositiveKSelectsNothingAndClearsOutput) {
  std::vector<int64_t> rows = {9, 1, 4};
  std::vector<float> scores = {0.1f, 0.2f, 0.3f};
  std::vector<int64_t> selected = {123, 456};  // stale contents must not leak
  TopKSelectRows(rows, scores, 0, selected);
  EXPECT_TRUE(selected.empty());
  selected = {123};
  TopKSelectRows(rows, scores, -3, selected);
  EXPECT_TRUE(selected.empty());
}

TEST(TopKSelectRowsTest, DeterministicAcrossRepeatsAndWorkspaceReuse) {
  Rng rng(4202);
  std::vector<int64_t> rows(500);
  std::vector<float> scores(500);
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = static_cast<int64_t>(rng.NextBounded(300));  // plenty of duplicates
    scores[i] = static_cast<float>(rng.NextBounded(8));    // heavy score ties
  }
  std::vector<int64_t> scratch;
  std::vector<int64_t> first;
  TopKSelectRows(rows, scores, 77, first, &scratch);
  for (int repeat = 0; repeat < 3; ++repeat) {
    std::vector<int64_t> again;
    TopKSelectRows(rows, scores, 77, again, repeat == 0 ? nullptr : &scratch);
    EXPECT_EQ(again, first);
  }
  EXPECT_EQ(first, ReferenceTopK(rows, scores, 77));
}

TEST(Int8QuantizeTest, ErrorBoundedByHalfScalePerRow) {
  Rng rng(4203);
  const int64_t rows = 37;
  const int64_t width = 24;
  std::vector<float> src(static_cast<size_t>(rows * width));
  for (float& v : src) {
    v = static_cast<float>(rng.NextGaussian());
  }
  std::vector<float> dst(src.size());
  std::vector<float> scales;
  QuantizeDequantizeInt8Rows(src, dst, rows, width, &scales);
  ASSERT_EQ(scales.size(), static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    float maxabs = 0.0f;
    for (int64_t j = 0; j < width; ++j) {
      maxabs = std::max(maxabs, std::fabs(src[static_cast<size_t>(r * width + j)]));
    }
    EXPECT_NEAR(scales[static_cast<size_t>(r)], maxabs / 127.0f, maxabs * 1e-6f);
    for (int64_t j = 0; j < width; ++j) {
      const size_t idx = static_cast<size_t>(r * width + j);
      // Documented bound: |v' - v| <= scale/2 (plus float rounding headroom).
      EXPECT_LE(std::fabs(dst[idx] - src[idx]),
                scales[static_cast<size_t>(r)] * 0.5f * (1.0f + 1e-5f))
          << "row " << r << " col " << j;
    }
  }
}

TEST(Int8QuantizeTest, RowMaximumSurvivesAndZeroRowsStayZero) {
  // Row 0: the maximum magnitude element maps to exactly +/-127 steps, so it survives
  // the round trip up to one float rounding. Row 1: all zeros -> scale 0, stays zero.
  std::vector<float> src = {0.5f, -2.0f, 1.0f, 0.25f,  //
                            0.0f, 0.0f, 0.0f, 0.0f};
  std::vector<float> dst(src.size(), 99.0f);
  std::vector<float> scales;
  QuantizeDequantizeInt8Rows(src, dst, 2, 4, &scales);
  EXPECT_NEAR(dst[1], -2.0f, 2.0f * 1e-6f);
  EXPECT_EQ(scales[1], 0.0f);
  for (size_t i = 4; i < 8; ++i) {
    EXPECT_EQ(dst[i], 0.0f);
  }
}

TEST(Int8QuantizeTest, InPlaceAliasingMatchesOutOfPlace) {
  Rng rng(4204);
  std::vector<float> src(96);
  for (float& v : src) {
    v = static_cast<float>(rng.NextUniform(-3.0, 3.0));
  }
  std::vector<float> out(src.size());
  QuantizeDequantizeInt8Rows(src, out, 8, 12);
  std::vector<float> in_place = src;
  QuantizeDequantizeInt8Rows(in_place, in_place, 8, 12);
  EXPECT_EQ(in_place, out);
}

TEST(Int8QuantizeTest, DeterministicAcrossRepeats) {
  Rng rng(4205);
  std::vector<float> src(200);
  for (float& v : src) {
    v = static_cast<float>(rng.NextGaussian() * 0.01);
  }
  std::vector<float> a(src.size());
  std::vector<float> b(src.size());
  QuantizeDequantizeInt8Rows(src, a, 10, 20);
  QuantizeDequantizeInt8Rows(src, b, 10, 20);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace parallax
