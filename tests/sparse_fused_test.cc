// Property tests for the one sparse sum, RowSlotSum's slot-table pass, and for
// ScatterSgdUpdate: they must match the naive reference implementations BIT-FOR-BIT —
// same accumulation order per output row — across randomized nnz, row widths,
// duplicate-index densities and group layouts, including nnz=0 and all-duplicate edge
// cases, on fresh and on reused state. The references (tests/naive_reference.h)
// reproduce the seed implementations (std::map slot assignment, Concat-then-coalesce,
// sequential scatter).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/tensor/tensor_ops.h"
#include "tests/naive_reference.h"

namespace parallax {
namespace {

// ---- Helpers -------------------------------------------------------------------------

// dup_span controls duplicate density: indices are drawn from [0, dup_span); a small
// span forces heavy duplication, dup_span == rows gives mostly-unique indices.
IndexedSlices MakeRandomSlices(int64_t rows, int64_t width, int64_t nnz, int64_t dup_span,
                               Rng& rng) {
  std::vector<int64_t> indices;
  indices.reserve(static_cast<size_t>(nnz));
  for (int64_t i = 0; i < nnz; ++i) {
    indices.push_back(static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(dup_span))));
  }
  return IndexedSlices(std::move(indices),
                       RandomNormal(TensorShape({nnz, width}), rng),
                       TensorShape({rows, width}));
}

void ExpectBitIdentical(const IndexedSlices& got, const IndexedSlices& want,
                        const std::string& context) {
  ASSERT_EQ(got.nnz_rows(), want.nnz_rows()) << context;
  ASSERT_TRUE(got.dense_shape() == want.dense_shape()) << context;
  ASSERT_EQ(got.indices(), want.indices()) << context;
  auto gv = got.values().floats();
  auto wv = want.values().floats();
  ASSERT_EQ(gv.size(), wv.size()) << context;
  for (size_t i = 0; i < gv.size(); ++i) {
    ASSERT_EQ(gv[i], wv[i]) << context << " at flat element " << i;
  }
}

void ExpectTensorsBitIdentical(const Tensor& got, const Tensor& want,
                               const std::string& context) {
  ASSERT_TRUE(got.shape() == want.shape()) << context;
  auto gv = got.floats();
  auto wv = want.floats();
  for (size_t i = 0; i < gv.size(); ++i) {
    ASSERT_EQ(gv[i], wv[i]) << context << " at flat element " << i;
  }
}

struct Case {
  int64_t rows;
  int64_t width;
  int64_t nnz;
  int64_t dup_span;
};

std::vector<Case> PropertyCases() {
  return {
      {16, 4, 0, 16},          // nnz = 0
      {16, 4, 1, 16},          // single row
      {64, 1, 200, 1},         // all duplicates, width 1
      {64, 8, 500, 3},         // nearly all duplicates
      {1000, 3, 700, 1000},    // mostly unique, odd width
      {1000, 16, 1000, 50},    // heavy duplication, wider rows
      {100000, 8, 5000, 100000},   // radix-sort path, sparse touch
      {100000, 4, 60000, 20000},   // radix-sort path, duplicate-heavy
  };
}

// The naive seed kernels per group: NaiveCoalesce for a group of one input, NaiveSum
// otherwise, plus the group's distinct row count.
struct NaiveGroupSums {
  std::vector<IndexedSlices> sums;
  std::vector<int64_t> distinct_rows;
};

NaiveGroupSums NaivePerGroup(const std::vector<std::vector<IndexedSlices>>& inputs) {
  NaiveGroupSums naive;
  for (const std::vector<IndexedSlices>& group : inputs) {
    std::set<int64_t> rows;
    for (const IndexedSlices& input : group) {
      rows.insert(input.indices().begin(), input.indices().end());
    }
    naive.sums.push_back(group.size() == 1 ? NaiveCoalesce(group.front()) : NaiveSum(group));
    naive.distinct_rows.push_back(static_cast<int64_t>(rows.size()));
  }
  return naive;
}

// What a caller keeps across sums: one slot table per group (variable), as the PS engine
// keeps one per variable, and one sum per group.
struct SlotState {
  std::vector<std::vector<int32_t>> tables;
  std::vector<RowSlotSum> sums;
};

// A slot sum's rows in its slot order, as IndexedSlices.
IndexedSlices ToSlices(const RowSlotSum& sum, const TensorShape& dense_shape) {
  const int64_t width = dense_shape.row_elements();
  std::vector<int64_t> rows;
  Tensor values = Tensor::Zeros(dense_shape.WithDim0(sum.size()));
  for (int64_t s = 0; s < sum.size(); ++s) {
    rows.push_back(sum.row(s));
    std::copy_n(sum.sum(s), width, values.mutable_floats().data() + s * width);
  }
  return IndexedSlices(std::move(rows), std::move(values), dense_shape);
}

// Sums each group of `inputs` (one variable's contributors, in order) on its own slot
// table of `state`, and checks it against the naive seed kernels: the group's distinct
// rows, each once, with the naive row's bits. Every table must be free again after the
// sums. The random inputs hold no -0, so a kept single contribution has the bits of
// +0 plus it and both starts match the naive sums.
void ExpectSlotSumsMatchNaive(const std::vector<std::vector<IndexedSlices>>& inputs,
                              const NaiveGroupSums& naive, SlotState& state,
                              RowSlotSum::Start start, const std::string& context) {
  const size_t num_groups = inputs.size();
  state.tables.resize(std::max(state.tables.size(), num_groups));
  state.sums.resize(std::max(state.sums.size(), num_groups));
  for (size_t g = 0; g < num_groups; ++g) {
    const std::string group_context = context + StrFormat(" group=%zu", g);
    const TensorShape& dense_shape = inputs[g].front().dense_shape();
    std::vector<int32_t>& table = state.tables[g];
    table.resize(std::max(table.size(), static_cast<size_t>(dense_shape.dim(0))), -1);
    int64_t pairs = 0;
    for (const IndexedSlices& input : inputs[g]) {
      pairs += input.nnz_rows();
    }
    RowSlotSum& sum = state.sums[g];
    sum.Begin(table, dense_shape.row_elements(), std::min(dense_shape.dim(0), pairs), start);
    for (const IndexedSlices& input : inputs[g]) {
      sum.Add(input);
    }
    sum.End();
    ASSERT_TRUE(std::all_of(table.begin(), table.end(), [](int32_t e) { return e == -1; }))
        << group_context << " left a slot table entry set";

    const IndexedSlices& want = naive.sums[g];
    ASSERT_EQ(sum.size(), naive.distinct_rows[g]) << group_context;
    ASSERT_EQ(sum.size(), want.nnz_rows()) << group_context;
    const IndexedSlices got = ToSlices(sum, dense_shape);
    const int64_t width = dense_shape.row_elements();
    std::vector<int> hits(static_cast<size_t>(want.nnz_rows()), 0);
    for (int64_t s = 0; s < got.nnz_rows(); ++s) {
      const int64_t row = got.indices()[static_cast<size_t>(s)];
      auto it = std::lower_bound(want.indices().begin(), want.indices().end(), row);
      ASSERT_TRUE(it != want.indices().end() && *it == row)
          << group_context << " summed row " << row << " the naive sum lacks";
      const int64_t slot = it - want.indices().begin();
      ++hits[static_cast<size_t>(slot)];
      for (int64_t j = 0; j < width; ++j) {
        ASSERT_EQ(got.values().floats()[static_cast<size_t>(s * width + j)],
                  want.values().floats()[static_cast<size_t>(slot * width + j)])
            << group_context << " row " << row << " element " << j;
      }
    }
    for (size_t slot = 0; slot < hits.size(); ++slot) {
      ASSERT_EQ(hits[slot], 1) << group_context << " row " << want.indices()[slot];
    }
  }
}

// Every property case with both starts: on fresh state, then twice on state reused
// across every case (buffer reuse across differing sizes must not leak state between
// sums).
template <typename MakeInputs>
void ForFreshAndReusedState(uint64_t seed, MakeInputs make_inputs) {
  Rng rng(seed);
  SlotState reused;
  for (const Case& c : PropertyCases()) {
    const std::vector<std::vector<IndexedSlices>> inputs = make_inputs(c, rng);
    const NaiveGroupSums naive = NaivePerGroup(inputs);
    for (const RowSlotSum::Start start :
         {RowSlotSum::Start::kFromZero, RowSlotSum::Start::kKeepSingle}) {
      const std::string context = StrFormat(
          "start=%d rows=%lld width=%lld nnz=%lld dup_span=%lld", static_cast<int>(start),
          static_cast<long long>(c.rows), static_cast<long long>(c.width),
          static_cast<long long>(c.nnz), static_cast<long long>(c.dup_span));
      SlotState fresh;
      ExpectSlotSumsMatchNaive(inputs, naive, fresh, start, context + " fresh");
      ExpectSlotSumsMatchNaive(inputs, naive, reused, start, context + " reused");
      ExpectSlotSumsMatchNaive(inputs, naive, reused, start, context + " reused again");
    }
  }
}

// ---- Properties ----------------------------------------------------------------------

TEST(SparseFusedTest, CoalescedMatchesNaiveBitForBit) {
  // One group of one input: the slot pass coalesces it.
  ForFreshAndReusedState(101, [](const Case& c, Rng& rng) {
    return std::vector<std::vector<IndexedSlices>>{
        {MakeRandomSlices(c.rows, c.width, c.nnz, c.dup_span, rng)}};
  });
}

TEST(SparseFusedTest, FusedSumMatchesConcatCoalesceBitForBit) {
  // One group of k inputs, including empty contributions: the slot pass sums them in
  // contributor order, as coalescing their concatenation does.
  for (int k : {1, 2, 5}) {
    ForFreshAndReusedState(202 + static_cast<uint64_t>(k), [k](const Case& c, Rng& rng) {
      std::vector<IndexedSlices> group;
      for (int s = 0; s < k; ++s) {
        // Vary nnz per contribution, including empty contributions.
        int64_t nnz = s == 1 ? 0 : c.nnz;
        group.push_back(MakeRandomSlices(c.rows, c.width, nnz, c.dup_span, rng));
      }
      return std::vector<std::vector<IndexedSlices>>{std::move(group)};
    });
  }
}

TEST(SparseFusedTest, MultiGroupSumMatchesNaivePerGroupBitForBit) {
  // Several groups, each on its own table: an empty group, groups over the same key
  // space (equal index values in different groups must never merge), and different
  // widths.
  ForFreshAndReusedState(303, [](const Case& c, Rng& rng) {
    std::vector<std::vector<IndexedSlices>> groups(4);
    for (int s = 0; s < 2; ++s) {
      groups[0].push_back(MakeRandomSlices(c.rows, c.width, c.nnz, c.dup_span, rng));
    }
    groups[1].push_back(MakeRandomSlices(16, 3, 0, 16, rng));  // empty group
    for (int s = 0; s < 3; ++s) {
      // Same rows and index span as group 0, wider rows.
      groups[2].push_back(MakeRandomSlices(c.rows, c.width + 3, c.nnz / 2, c.dup_span, rng));
    }
    groups[3].push_back(
        MakeRandomSlices(c.rows, 1, c.nnz, std::min<int64_t>(c.dup_span, 7), rng));
    return groups;
  });
}

TEST(SparseFusedTest, ScatterSgdUpdateMatchesNaiveForAllPoolSizes) {
  // The update is one sequential pass whatever the kernel pool's size; both the raw
  // (unsorted, duplicate-bearing) gradient and the coalesced (sorted-unique) one must
  // reproduce the seed's scatter bit for bit.
  Rng rng(303);
  for (const Case& c : PropertyCases()) {
    IndexedSlices raw = MakeRandomSlices(c.rows, c.width, c.nnz, c.dup_span, rng);
    for (const IndexedSlices& grad : {raw, NaiveCoalesce(raw)}) {
      Tensor params = RandomNormal(TensorShape({c.rows, c.width}), rng);
      Tensor want = params.Clone();
      NaiveScatterSgd(want, grad, 0.05f);
      Tensor got = params.Clone();
      ScatterSgdUpdate(got, grad, 0.05f);
      ExpectTensorsBitIdentical(
          got, want, StrFormat("nnz=%lld", static_cast<long long>(grad.nnz_rows())));
    }
  }
}

TEST(SparseFusedTest, SumAfterSplitEqualsSplitAfterSum) {
  // End-to-end PS-shard identity: splitting each worker's gradient then summing per
  // piece must equal summing globally then splitting — the algebra the partitioned
  // accumulators rely on. A split keeps each piece's rows in input order, so every row
  // sums the same contributions in the same order either way and opens its slot at the
  // same place: rows, order and bits agree.
  Rng rng(505);
  const int64_t rows = 300, width = 4;
  const TensorShape shape({rows, width});
  RowPartition partition(rows, 4);
  std::vector<IndexedSlices> workers;
  for (int w = 0; w < 3; ++w) {
    workers.push_back(MakeRandomSlices(rows, width, 200, 40, rng));
  }
  std::vector<int32_t> table(static_cast<size_t>(rows), -1);
  RowSlotSum sum;
  sum.Begin(table, width, rows, RowSlotSum::Start::kFromZero);
  for (const IndexedSlices& w : workers) {
    sum.Add(w);
  }
  sum.End();
  std::vector<IndexedSlices> split_of_sum = NaiveSplit(ToSlices(sum, shape), partition);

  std::vector<std::vector<IndexedSlices>> worker_pieces;
  for (const IndexedSlices& w : workers) {
    worker_pieces.push_back(NaiveSplit(w, partition));
  }
  ASSERT_EQ(split_of_sum.size(), static_cast<size_t>(partition.num_partitions()));
  for (int p = 0; p < partition.num_partitions(); ++p) {
    // Each piece on its own table over the piece's rows.
    std::vector<int32_t> piece_table(static_cast<size_t>(partition.RowsIn(p)), -1);
    sum.Begin(piece_table, width, partition.RowsIn(p), RowSlotSum::Start::kFromZero);
    for (const std::vector<IndexedSlices>& pieces : worker_pieces) {
      sum.Add(pieces[static_cast<size_t>(p)]);
    }
    sum.End();
    ExpectBitIdentical(ToSlices(sum, shape.WithDim0(partition.RowsIn(p))),
                       split_of_sum[static_cast<size_t>(p)], StrFormat("piece=%d", p));
  }
}

TEST(SparseFusedTest, AccessRatioCachedValueMatchesDefinition) {
  Rng rng(606);
  for (const Case& c : PropertyCases()) {
    IndexedSlices slices = MakeRandomSlices(c.rows, c.width, c.nnz, c.dup_span, rng);
    std::unordered_set<int64_t> unique(slices.indices().begin(), slices.indices().end());
    double want = static_cast<double>(unique.size()) / static_cast<double>(c.rows);
    EXPECT_DOUBLE_EQ(slices.AccessRatio(), want);
    EXPECT_DOUBLE_EQ(slices.AccessRatio(), want);  // cached second call
    EXPECT_EQ(slices.unique_rows(), static_cast<int64_t>(unique.size()));
  }
}

TEST(SparseFusedTest, CoalescedOutputHoldsEachRowOnce) {
  Rng rng(707);
  std::vector<int32_t> table;
  RowSlotSum sum;
  for (const Case& c : PropertyCases()) {
    IndexedSlices in = MakeRandomSlices(c.rows, c.width, c.nnz, c.dup_span, rng);
    table.resize(std::max(table.size(), static_cast<size_t>(c.rows)), -1);
    sum.Begin(table, c.width, std::min(c.rows, c.nnz), RowSlotSum::Start::kFromZero);
    sum.Add(in);
    sum.End();
    std::set<int64_t> rows;
    for (int64_t s = 0; s < sum.size(); ++s) {
      EXPECT_TRUE(rows.insert(sum.row(s)).second) << "row " << sum.row(s) << " twice";
    }
    EXPECT_EQ(rows, std::set<int64_t>(in.indices().begin(), in.indices().end()));
  }
}

TEST(SparseFusedTest, SingleContributionKeptAsIsOrAddedToZero) {
  // The two starts differ on a row with one contribution: kKeepSingle reads it in place,
  // kFromZero adds it to +0, which turns a -0 into +0. A row with two contributions
  // starts from +0 under both.
  const TensorShape shape({4, 2});
  IndexedSlices a({1, 2}, Tensor::FromVector({-0.0f, 1.5f, -0.0f, 2.0f}, TensorShape({2, 2})),
                  shape);
  IndexedSlices b({2}, Tensor::FromVector({-0.0f, 0.25f}, TensorShape({1, 2})), shape);
  std::vector<int32_t> table(4, -1);
  RowSlotSum sum;
  for (const RowSlotSum::Start start :
       {RowSlotSum::Start::kFromZero, RowSlotSum::Start::kKeepSingle}) {
    const bool keep = start == RowSlotSum::Start::kKeepSingle;
    SCOPED_TRACE(keep ? "kKeepSingle" : "kFromZero");
    sum.Begin(table, 2, 4, start);
    sum.Add(a);
    sum.Add(b);
    sum.End();
    ASSERT_EQ(sum.size(), 2);
    EXPECT_EQ(sum.row(0), 1);
    EXPECT_EQ(sum.row(1), 2);
    // Row 1: one contribution.
    EXPECT_EQ(sum.sum(0) == a.values().floats().data(), keep);
    EXPECT_EQ(std::signbit(sum.sum(0)[0]), keep);
    EXPECT_EQ(sum.sum(0)[1], 1.5f);
    // Row 2: (+0 + -0) + -0 is +0 under both starts.
    EXPECT_FALSE(std::signbit(sum.sum(1)[0]));
    EXPECT_EQ(sum.sum(1)[1], 2.25f);
  }
}

TEST(SparseFusedTest, CountDistinctRowsMatchesASetAndFreesTheTable) {
  Rng rng(808);
  std::vector<int32_t> table;
  for (const Case& c : PropertyCases()) {
    IndexedSlices in = MakeRandomSlices(c.rows, c.width, c.nnz, c.dup_span, rng);
    table.resize(std::max(table.size(), static_cast<size_t>(c.rows)), -1);
    EXPECT_EQ(CountDistinctRows(in.indices(), table),
              static_cast<int64_t>(
                  std::set<int64_t>(in.indices().begin(), in.indices().end()).size()));
    EXPECT_TRUE(std::all_of(table.begin(), table.end(), [](int32_t e) { return e == -1; }));
  }
}

}  // namespace
}  // namespace parallax
