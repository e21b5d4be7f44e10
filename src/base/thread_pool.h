// Fixed-size thread pool for data-parallel kernel loops.
//
// The pool exists for one purpose: splitting a contiguous index range across a small,
// fixed set of worker threads (ParallelFor). Work items are claimed chunk-by-chunk from
// an atomic cursor, and the calling thread participates, so a pool of N threads has N
// lanes of execution, not N+1. With one thread (or a small range) ParallelFor degrades
// to a plain sequential loop on the caller — the deterministic fallback.
//
// Determinism contract: callers must hand ParallelFor shards that write disjoint data
// and whose per-shard iteration order is fixed. Under that contract results are
// bit-identical for every pool size, because no float accumulation order ever crosses a
// shard boundary (see docs/perf.md).
//
// Concurrent ParallelFor calls from different threads overlap: each call publishes
// its batch to a FIFO queue and then participates in draining it, so a call completes
// even when every worker lane is busy — or blocked — on other batches. No lock is held
// across a batch's execution; one caller's long batch never gates another caller's
// submission, and a caller whose body blocks on external state (e.g. a planner lane
// waiting out another tenant's in-flight search) cannot deadlock a ParallelFor that
// that external work needs to finish. Idle workers drain queued batches oldest-first.
//
// Nested ParallelFor on the same pool runs inline: a body that calls ParallelFor on
// the pool it is already running on executes the nested range serially on the calling
// lane instead of queueing more work onto lanes that are already occupied. Under the
// disjoint-shard contract this preserves bit-identity (serial order is the reference
// order), so one pool can serve both an outer fan-out (e.g. GraphRunner::Step's
// replicas) and the sparse kernels its bodies call. Keep kernel code at one level of
// parallelism regardless — the inline fallback forfeits the inner level's speedup.
#ifndef PARALLAX_SRC_BASE_THREAD_POOL_H_
#define PARALLAX_SRC_BASE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace parallax {

class ThreadPool {
 public:
  // Spawns num_threads - 1 workers (the caller is the remaining lane). num_threads >= 1.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Invokes fn(begin, end) over disjoint chunks of [0, total), each at most `grain`
  // long, across the pool's lanes. Blocks until every chunk completed. Runs inline on
  // the caller when total <= grain or the pool has one thread.
  void ParallelFor(int64_t total, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& fn);

 private:
  // One ParallelFor invocation. Lives in the queue while it still has unclaimed
  // chunks; workers and the submitter hold their own shared_ptr while draining, so
  // pruning a fully-claimed batch from the queue never invalidates a running lane.
  struct Batch {
    const std::function<void(int64_t, int64_t)>* fn = nullptr;
    int64_t total = 0;
    int64_t grain = 0;
    int64_t chunks = 0;
    std::atomic<int64_t> next_chunk{0};
    std::atomic<int64_t> remaining_chunks{0};
  };

  void WorkerLoop();
  static void RunChunks(Batch& batch, std::condition_variable& done_cv, std::mutex& mu);
  // Oldest queued batch with unclaimed chunks, pruning fully-claimed batches along
  // the way; null when the queue holds no claimable work. Requires mu_.
  std::shared_ptr<Batch> NextClaimableLocked();

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: claimable work or shutdown
  std::condition_variable done_cv_;  // submitters: some batch fully drained

  std::deque<std::shared_ptr<Batch>> batches_;  // guarded by mu_; FIFO of live batches
  bool shutdown_ = false;
};

// Hardware concurrency with the `hardware_concurrency() == 0` ("unknown") fallback
// applied, clamped to [1, cap]. The one place that fallback rule lives — planner
// fan-out, batched candidate measurement, and the sparse-kernel default all size
// their worker counts through it.
int DefaultWorkerCount(int cap = 16);

// Lanes of the process-wide kernel pool: the PARALLAX_THREADS environment variable if
// set, else DefaultWorkerCount(). Read once at first use.
int DefaultSparseThreads();

// The process-wide kernel pool, which GraphRunner::Step fans a synchronous step's
// replicas out over. Constructed lazily with DefaultSparseThreads() lanes.
ThreadPool& GlobalSparsePool();

}  // namespace parallax

#endif  // PARALLAX_SRC_BASE_THREAD_POOL_H_
