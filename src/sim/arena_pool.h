// A shared pool of SimulationArenas behind RAII leases.
//
// SimulationArena (src/core/iteration_sim.h) is deliberately single-threaded: one
// simulating thread owns the task storage, schedule cache, and scratch tables at a
// time. Anything that simulates concurrently therefore needs one arena per worker.
// This pool is the one mechanism that hands them out; PlannerService leases one arena
// per query from it:
//
//   - Acquire() never blocks on a busy arena: the pool grows on demand, so N
//     concurrent leases simply mean N arenas exist.
//   - Release (the Lease destructor) retains up to `max_pooled` arenas for reuse;
//     the excess is destroyed. Reused arenas keep their warm task storage and
//     collective-schedule caches, so steady-state acquire/simulate/release cycles
//     allocate nothing (tests/parallel_search_test.cc).
//
// The pool must outlive every lease. Leases are move-only; the arena pointer stays
// stable for the lease's lifetime.
#ifndef PARALLAX_SRC_SIM_ARENA_POOL_H_
#define PARALLAX_SRC_SIM_ARENA_POOL_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

namespace parallax {

struct SimulationArena;  // src/core/iteration_sim.h; held opaquely here

class ArenaPool {
 public:
  explicit ArenaPool(size_t max_pooled = 16);
  ~ArenaPool();

  ArenaPool(const ArenaPool&) = delete;
  ArenaPool& operator=(const ArenaPool&) = delete;

  class Lease {
   public:
    Lease(Lease&& other) noexcept;
    Lease& operator=(Lease&& other) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    SimulationArena* get() const { return arena_.get(); }

   private:
    friend class ArenaPool;
    Lease(ArenaPool* pool, std::unique_ptr<SimulationArena> arena);

    ArenaPool* pool_ = nullptr;
    std::unique_ptr<SimulationArena> arena_;
  };

  // Contention-free checkout: reuses a pooled arena or grows the pool. Never blocks
  // on a busy arena.
  Lease Acquire();

  // Arenas sitting in the free pool / ever-created-and-still-live (pooled + leased).
  size_t pooled() const;
  size_t total() const;

 private:
  void Release(std::unique_ptr<SimulationArena> arena);

  const size_t max_pooled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SimulationArena>> free_;  // guarded by mu_
  size_t total_ = 0;                                    // guarded by mu_
};

}  // namespace parallax

#endif  // PARALLAX_SRC_SIM_ARENA_POOL_H_
