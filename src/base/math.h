// Shared integer schedule math.
//
// The one "split N items into P near-equal parts, first N % P parts one larger"
// formula (BalancedSplitBegin/BalancedSplitSize below, TensorFlow's
// fixed_size_partitioner semantics). Its users:
//   - IterationSimulator's PS shard sizes (core/iteration_sim.cc);
//   - the runner's shard-migration estimate, which walks old and new pieces
//     (GraphRunner::MigrationSecondsBetween, core/runner.cc);
//   - the PS oracle's row pieces (RowPartition, tests/naive_reference.h);
//   - ring-collective chunking (comm/collectives.cc, where a w-byte gradient is cut
//     into N ring chunks).
// Keeping the arithmetic here guarantees they stay consistent — a simulated shard, a
// migrated piece, an oracle piece and a ring chunk are bounded by the same formula.
#ifndef PARALLAX_SRC_BASE_MATH_H_
#define PARALLAX_SRC_BASE_MATH_H_

#include <cstdint>
#include <cstring>
#include <span>

namespace parallax {

// FNV-1a offset basis / prime — the one hashing scheme behind structural fingerprints
// (sim/task_graph.h) and schedule-cache keys (comm/collectives.cc), kept here so the
// two can never drift apart.
inline constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

// Folds the 8 bytes of `value` into an FNV-1a running hash.
constexpr uint64_t FnvMix64(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= kFnvPrime;
  }
  return hash;
}

inline uint64_t Fnv64(std::span<const int64_t> values) {
  uint64_t hash = kFnvOffsetBasis;
  for (int64_t value : values) {
    hash = FnvMix64(hash, static_cast<uint64_t>(value));
  }
  return hash;
}

// Bit pattern of a double, for hashing time/seconds payloads exactly.
inline uint64_t DoubleBits(double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Positive modulus, e.g. ring-neighbor arithmetic: PosMod(-1, n) == n - 1.
constexpr int PosMod(int a, int n) { return ((a % n) + n) % n; }

// Balanced split of `total` into `parts`: part i covers
// [BalancedSplitBegin(total, parts, i), BalancedSplitBegin(total, parts, i + 1)).
constexpr int64_t BalancedSplitBegin(int64_t total, int64_t parts, int64_t i) {
  int64_t base = total / parts;
  int64_t remainder = total % parts;
  return i * base + (i < remainder ? i : remainder);
}

// Size of part i under the balanced split: base size plus one for the first
// total % parts parts.
constexpr int64_t BalancedSplitSize(int64_t total, int64_t parts, int64_t i) {
  return total / parts + (i < total % parts ? 1 : 0);
}

}  // namespace parallax

#endif  // PARALLAX_SRC_BASE_MATH_H_
