// Property tests for the fused sparse aggregation kernels: MultiVariableSum and its
// streaming form MultiVariableSumStream — the library's one sparse sum path — and
// ScatterSgdUpdate must match the naive reference implementations
// BIT-FOR-BIT — same accumulation order per output row — across randomized nnz, row
// widths, duplicate-index densities, group layouts and thread-pool sizes, including
// nnz=0 and all-duplicate edge cases. The references (tests/naive_reference.h) reproduce
// the seed implementations (std::map slot assignment, Concat-then-coalesce, sequential
// scatter).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <unordered_set>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/base/thread_pool.h"
#include "src/tensor/sparse_workspace.h"
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

void ExpectStrictlyAscending(const std::vector<int64_t>& indices, const std::string& context) {
  for (size_t i = 1; i < indices.size(); ++i) {
    ASSERT_LT(indices[i - 1], indices[i]) << context << " at output row " << i;
  }
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

// Runs both fused kernels over `inputs` (one group per entry, contributors in order)
// and checks each group against the naive seed kernels. MultiVariableSum must return the
// naive result's bits with strictly ascending indices; MultiVariableSumStream must hand
// every naive output row to `consume` exactly once with the same bits, and report each
// group's naive distinct-row count through unique_rows_out.
void ExpectFusedKernelsMatchNaive(const std::vector<std::vector<IndexedSlices>>& inputs,
                                  const NaiveGroupSums& naive, SparseWorkspace* ws,
                                  const std::string& context) {
  const size_t num_groups = inputs.size();
  const std::vector<IndexedSlices>& want = naive.sums;
  std::vector<SparseSumGroup> groups(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    for (const IndexedSlices& input : inputs[g]) {
      groups[g].inputs.push_back(&input);
    }
  }

  std::vector<IndexedSlices> got = MultiVariableSum(groups, ws);
  ASSERT_EQ(got.size(), num_groups) << context;
  for (size_t g = 0; g < num_groups; ++g) {
    const std::string group_context = context + StrFormat(" group=%zu", g);
    ExpectBitIdentical(got[g], want[g], group_context + " MultiVariableSum");
    ExpectStrictlyAscending(got[g].indices(), group_context + " MultiVariableSum");
  }

  // Streamed rows may arrive from several lanes at once; each lands in its own slot of
  // the naive output's layout (found by binary search over the naive indices).
  std::vector<Tensor> streamed;
  std::vector<std::vector<std::atomic<int>>> hits;
  for (size_t g = 0; g < num_groups; ++g) {
    streamed.push_back(Tensor::Zeros(want[g].values().shape()));
    hits.emplace_back(static_cast<size_t>(want[g].nnz_rows()));
  }
  std::atomic<int> unknown_rows{0};
  std::vector<int64_t> unique_rows;
  MultiVariableSumStream(groups, ws, [&](int64_t g, int64_t row, const float* values) {
    const std::vector<int64_t>& rows = want[static_cast<size_t>(g)].indices();
    auto it = std::lower_bound(rows.begin(), rows.end(), row);
    if (it == rows.end() || *it != row) {
      unknown_rows.fetch_add(1);
      return;
    }
    const int64_t slot = it - rows.begin();
    const int64_t width = want[static_cast<size_t>(g)].row_elements();
    std::copy_n(values, width,
                streamed[static_cast<size_t>(g)].mutable_floats().data() + slot * width);
    hits[static_cast<size_t>(g)][static_cast<size_t>(slot)].fetch_add(1);
  }, &unique_rows);
  ASSERT_EQ(unknown_rows.load(), 0) << context << " MultiVariableSumStream";
  ASSERT_EQ(unique_rows, naive.distinct_rows) << context << " unique_rows_out";
  for (size_t g = 0; g < num_groups; ++g) {
    const std::string group_context = context + StrFormat(" group=%zu stream", g);
    for (int64_t slot = 0; slot < want[g].nnz_rows(); ++slot) {
      ASSERT_EQ(hits[g][static_cast<size_t>(slot)].load(), 1)
          << group_context << " row " << want[g].indices()[static_cast<size_t>(slot)];
    }
    ExpectTensorsBitIdentical(streamed[g], want[g].values(), group_context);
  }
}

// Every property case at pool sizes 1, 2 and 4: on a fresh workspace, then twice on one
// workspace reused across every case (buffer reuse across differing sizes must not leak
// state between calls), plus once without a workspace (the kernels' local fallback).
template <typename MakeInputs>
void ForEveryPoolAndWorkspace(uint64_t seed, MakeInputs make_inputs) {
  Rng rng(seed);
  for (int pool_threads : {1, 2, 4}) {
    ThreadPool pool(pool_threads);
    SparseWorkspace reused(&pool);
    for (const Case& c : PropertyCases()) {
      const std::vector<std::vector<IndexedSlices>> inputs = make_inputs(c, rng);
      const std::string context = StrFormat(
          "threads=%d rows=%lld width=%lld nnz=%lld dup_span=%lld", pool_threads,
          static_cast<long long>(c.rows), static_cast<long long>(c.width),
          static_cast<long long>(c.nnz), static_cast<long long>(c.dup_span));
      const NaiveGroupSums naive = NaivePerGroup(inputs);
      SparseWorkspace fresh(&pool);
      ExpectFusedKernelsMatchNaive(inputs, naive, &fresh, context + " fresh-ws");
      ExpectFusedKernelsMatchNaive(inputs, naive, &reused, context + " reused-ws");
      ExpectFusedKernelsMatchNaive(inputs, naive, &reused, context + " reused-ws again");
      if (pool_threads == 1) {
        ExpectFusedKernelsMatchNaive(inputs, naive, nullptr, context + " no-ws");
      }
    }
  }
}

// ---- Properties ----------------------------------------------------------------------

TEST(SparseFusedTest, CoalescedMatchesNaiveBitForBit) {
  // One group of one input: the fused kernels coalesce it.
  ForEveryPoolAndWorkspace(101, [](const Case& c, Rng& rng) {
    return std::vector<std::vector<IndexedSlices>>{
        {MakeRandomSlices(c.rows, c.width, c.nnz, c.dup_span, rng)}};
  });
}

TEST(SparseFusedTest, FusedSumMatchesConcatCoalesceBitForBit) {
  // One group of k inputs, including empty contributions: the fused kernels sum them
  // in contributor order, as coalescing their concatenation does.
  for (int k : {1, 2, 5}) {
    ForEveryPoolAndWorkspace(202 + static_cast<uint64_t>(k), [k](const Case& c, Rng& rng) {
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
  // Several groups through one pass: an empty group, groups over the same key space
  // (equal index values in different groups must never merge), and different widths.
  ForEveryPoolAndWorkspace(303, [](const Case& c, Rng& rng) {
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
  // accumulators rely on. The per-piece sums run as one multi-group pass, one group per
  // piece. A split keeps each piece's rows in input order, so every row sums the same
  // contributions in the same order either way: the bits agree.
  Rng rng(505);
  SparseWorkspace ws;
  const int64_t rows = 300, width = 4;
  RowPartition partition(rows, 4);
  std::vector<IndexedSlices> workers;
  SparseSumGroup global_group;
  for (int w = 0; w < 3; ++w) {
    workers.push_back(MakeRandomSlices(rows, width, 200, 40, rng));
  }
  for (const IndexedSlices& w : workers) {
    global_group.inputs.push_back(&w);
  }
  IndexedSlices global = MultiVariableSum({global_group}, &ws).front();
  std::vector<IndexedSlices> split_of_sum = NaiveSplit(global, partition);
  std::vector<std::vector<IndexedSlices>> worker_pieces;
  for (const IndexedSlices& w : workers) {
    worker_pieces.push_back(NaiveSplit(w, partition));
  }
  std::vector<SparseSumGroup> piece_groups(static_cast<size_t>(partition.num_partitions()));
  for (size_t p = 0; p < piece_groups.size(); ++p) {
    for (const std::vector<IndexedSlices>& pieces : worker_pieces) {
      piece_groups[p].inputs.push_back(&pieces[p]);
    }
  }
  std::vector<IndexedSlices> sum_of_split = MultiVariableSum(piece_groups, &ws);
  ASSERT_EQ(sum_of_split.size(), split_of_sum.size());
  for (size_t p = 0; p < sum_of_split.size(); ++p) {
    ExpectBitIdentical(sum_of_split[p], split_of_sum[p], StrFormat("piece=%zu", p));
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

TEST(SparseFusedTest, CoalescedOutputIsSortedUnique) {
  Rng rng(707);
  SparseWorkspace ws;
  for (const Case& c : PropertyCases()) {
    IndexedSlices in = MakeRandomSlices(c.rows, c.width, c.nnz, c.dup_span, rng);
    IndexedSlices out = MultiVariableSum({SparseSumGroup{{&in}}}, &ws).front();
    for (int64_t i = 1; i < out.nnz_rows(); ++i) {
      EXPECT_LT(out.indices()[static_cast<size_t>(i - 1)],
                out.indices()[static_cast<size_t>(i)]);
    }
  }
}

}  // namespace
}  // namespace parallax
