// Deterministic random number generation for simulation and synthetic data.
//
// All randomness in the library flows through Rng so that experiments and tests are
// reproducible bit-for-bit from a seed. The core generator is xoshiro256**, seeded via
// SplitMix64 (the construction recommended by the xoshiro authors).
#ifndef PARALLAX_SRC_BASE_RNG_H_
#define PARALLAX_SRC_BASE_RNG_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/base/logging.h"

namespace parallax {

// SplitMix64 step; used standalone for hashing/seeding.
inline uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Box–Muller: a standard normal from two uniforms in [0, 1), keeping the cosine of the
// pair. u1 is clamped away from 0, where the log diverges. Rng::NextGaussian draws
// through it, and so does every value RandomNormal (tensor_ops.h) cannot take from its
// vector lanes, so this is the one statement of the library's Gaussian.
inline double BoxMuller(double u1, double u2) {
  if (u1 < 1e-300) {
    u1 = 1e-300;
  }
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

// xoshiro256** PRNG with convenience distributions. Copyable: forked streams are a
// feature (give each simulated entity its own deterministic stream).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eed5eed5eedULL) {
    uint64_t sm = seed;
    for (auto& word : state_) {
      word = SplitMix64(sm);
    }
  }

  uint64_t NextUint64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53; }

  // Uniform integer in [0, bound). bound must be positive.
  uint64_t NextBounded(uint64_t bound) {
    PX_CHECK_GT(bound, 0u);
    // Rejection-free multiply-shift; bias is negligible for bound << 2^64.
    return static_cast<uint64_t>((static_cast<__uint128_t>(NextUint64()) * bound) >> 64);
  }

  // Uniform in [lo, hi).
  double NextUniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

  // Standard normal via Box-Muller: draws u1, then u2, and returns one value per pair.
  double NextGaussian() {
    const double u1 = NextDouble();
    const double u2 = NextDouble();
    return BoxMuller(u1, u2);
  }

  // Forks an independent stream; the child is seeded from this stream's output mixed with
  // the salt so sibling forks differ even with equal parent state.
  Rng Fork(uint64_t salt) {
    uint64_t mix = NextUint64() ^ (salt * 0x9e3779b97f4a7c15ULL);
    return Rng(mix);
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

// Zipf(s) sampler over {0, ..., n-1} using precomputed inverse-CDF table. Zipf-distributed
// token ids are what give synthetic text realistic embedding-access sparsity (a small hot
// vocabulary plus a long tail), which drives the per-batch alpha the paper's analysis
// depends on.
class ZipfSampler {
 public:
  ZipfSampler(int64_t n, double exponent);

  int64_t Sample(Rng& rng) const { return SampleBounded(rng, n_); }

  // Samples from the Zipf distribution conditioned on id < bound (the truncated /
  // renormalized head), in O(log bound) via the prefix of the same inverse-CDF table.
  // Equivalent in distribution to rejection-sampling Sample() until id < bound, but
  // with one uniform draw per token regardless of how small the bound is — what keeps
  // a vocabulary warm-up schedule (synthetic.h's active_fraction) O(1) per token.
  // bound must be in [1, n()].
  int64_t SampleBounded(Rng& rng, int64_t bound) const;

  int64_t n() const { return n_; }
  double exponent() const { return exponent_; }

 private:
  int64_t n_;
  double exponent_;
  std::vector<double> cdf_;  // cdf_[i] = P(X <= i)
};

}  // namespace parallax

#endif  // PARALLAX_SRC_BASE_RNG_H_
