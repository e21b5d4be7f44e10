// SparseWorkspace: a reusable scratch arena for the sparse aggregation pipeline.
//
// The sparse hot path — the fused MultiVariableSum / MultiVariableSumStream pass of the
// PS engine's step — runs every training iteration. Rebuilding its working state (sort
// buffers, permutations, histograms, segment tables) from the heap every call dominated
// the kernels' cost in the seed implementation (a std::map node per distinct row).
// Threading one SparseWorkspace through a training loop makes the steady state
// allocation-free: every buffer is grow-only and reused across calls, so after the first
// iteration at peak nnz the kernels never touch the allocator again. (Output tensors
// handed to callers are still freshly allocated — they escape the call.)
//
// A workspace is single-owner state, like an Rng: one per engine / thread of control,
// never shared concurrently. Kernels accept `SparseWorkspace*` and fall back to a local
// (allocating) workspace when given nullptr, so every call site works without one.
//
// The workspace also carries the ThreadPool the kernels may use for segment-parallel
// reduction; when unset, GlobalSparsePool() is used. Results are bit-identical for every
// pool size (see docs/perf.md for the argument).
#ifndef PARALLAX_SRC_TENSOR_SPARSE_WORKSPACE_H_
#define PARALLAX_SRC_TENSOR_SPARSE_WORKSPACE_H_

#include <cstdint>
#include <vector>

#include "src/base/thread_pool.h"

namespace parallax {

class SparseWorkspace {
 public:
  SparseWorkspace() = default;
  explicit SparseWorkspace(ThreadPool* pool) : pool_(pool) {}

  // Pool used for parallel segment reduction; GlobalSparsePool() when none was set.
  ThreadPool& pool() const { return pool_ != nullptr ? *pool_ : GlobalSparsePool(); }
  void set_pool(ThreadPool* pool) { pool_ = pool; }

  // ---- Sort pipeline (used by MultiVariableSum / MultiVariableSumStream) ----------
  //
  // Protocol: fill sort_keys(n) with the row indices of every range, call
  // SortRangeByKey once per range, then BuildSegmentsInRanges over the range bounds.
  // Afterwards each range of sorted_keys() holds its keys in ascending order and
  // sorted_pos()[i] is the original position of sorted element i; ties keep their input
  // order (stable), so per-row float accumulation order matches the naive input-order
  // reference exactly.

  // Scratch key buffer, resized to n (contents unspecified).
  std::vector<int64_t>& sort_keys(int64_t n) { return Resized(sort_keys_, n); }

  // Stable-sorts the subrange sort_keys()[begin, end) in place (sorted_pos()[begin, end)
  // holds the originating positions, which lie in [begin, end)). Keys must lie in
  // [0, max_key]. LSD radix sort for large ranges, comparison sort below the cutoff;
  // both stable, both allocation-free once buffers are warm. One key buffer carries
  // many independently-sorted ranges — the multi-variable fused aggregation sorts each
  // variable's contiguous run separately, keeping every sort cache-sized and its radix
  // width at the variable's own key range. The whole key buffer must be sized first
  // (sort_keys(n)); ranges must not overlap.
  void SortRangeByKey(int64_t begin, int64_t end, int64_t max_key);

  const std::vector<int64_t>& sorted_keys() const { return sort_keys_; }
  const std::vector<int64_t>& sorted_pos() const { return sort_pos_; }

  // Segment table over independently-sorted ranges: [range_starts[i], range_starts[i+1])
  // delimit the i-th sorted range (first entry 0, last entry n). Entry s of the returned
  // table is the first position of segment s, with a final sentinel n; num segments is
  // size() - 1. Equal keys on opposite sides of a range boundary stay in separate
  // segments — boundaries always start a new segment.
  const std::vector<int64_t>& BuildSegmentsInRanges(const std::vector<int64_t>& range_starts);

  // ---- General scratch -------------------------------------------------------------

  // Per-source row pointer table for fused multi-slice reduction.
  std::vector<const float*>& row_ptrs(int64_t n) { return Resized(row_ptrs_, n); }

  // Frees all scratch capacity (the workspace stays usable).
  void Release();

  // Bytes currently retained across all scratch buffers.
  int64_t RetainedBytes() const;

 private:
  template <typename T>
  static std::vector<T>& Resized(std::vector<T>& buffer, int64_t n) {
    buffer.resize(static_cast<size_t>(n));
    return buffer;
  }

  ThreadPool* pool_ = nullptr;

  std::vector<int64_t> sort_keys_;
  std::vector<int64_t> sort_pos_;
  std::vector<int64_t> alt_keys_;  // radix ping-pong
  std::vector<int64_t> alt_pos_;
  std::vector<int64_t> segment_starts_;
  std::vector<int64_t> histogram_;
  std::vector<const float*> row_ptrs_;
};

// Runs fn(segment_begin, segment_end) over [0, num_segments), in parallel when the
// total element volume justifies it and the workspace's pool has more than one lane.
// Each segment is processed entirely by one lane in ascending order, so the result is
// identical to the sequential fn(0, num_segments) for every pool size.
void ParallelOverSegments(const SparseWorkspace& workspace, int64_t num_segments,
                          int64_t total_elements,
                          const std::function<void(int64_t, int64_t)>& fn);

}  // namespace parallax

#endif  // PARALLAX_SRC_TENSOR_SPARSE_WORKSPACE_H_
