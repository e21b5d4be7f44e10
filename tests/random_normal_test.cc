// Tests for RandomNormal's Gaussian draws. RandomNormal draws the uniforms of a chunk of
// values from the Rng in the seed's order (u1, then u2, per value), computes each value's
// Box–Muller double on vector lanes with the library's own log and cos, and keeps its
// rounding to float only where a guard shows that libm's double rounds to the same
// float; the other lanes recompute their value with BoxMuller (rng.h), on libm.
//
// The oracle is the seed loop, NaiveRandomNormalInto (tests/naive_reference.h), which
// calls libm's log and cos itself. Every value must equal it BIT FOR BIT (memcmp) on
// every kernel ISA the CPU supports (RandomNormalTest runs the 2-lane baseline core,
// RandomNormalAvx2Test the 4-lane AVX2 one and RandomNormalAvx512Test the 8-lane
// AVX-512F one, each skipped where the CPU lacks it), and the Rng must end where the
// seed loop leaves it. Pinned
// pairs go through internal::GaussiansInto, which takes the uniforms directly and
// reports how many lanes fell back: u1 at 0 (the clamp to 1e-300), 2^-53 and 1 - 2^-53;
// u2 at 0, and at 1/4 and 3/4, whose angles land nearest pi/2 and 3 pi/2 of any u2
// (|cos| 6.1e-17 and 1.8e-16); and pairs found by search whose libm value lies within
// half the guard's tolerance of a midpoint between two floats, which must fall back.
// The core's own error is measured against long double (glibc's logl and cosl, within
// about 2^-65) on a sweep through those neighbourhoods and must stay under
// kGaussianGuard / 2^8.
//
// DISABLED_BillionValuesMatchSeedLoop compares 10^9 values on every kernel ISA with the
// seed's expression and prints the fallback rate (run it with
// --gtest_also_run_disabled_tests; about two minutes in Release).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/data/synthetic.h"
#include "src/tensor/tensor_ops.h"
#include "tests/naive_reference.h"

namespace parallax {
namespace {

using internal::KernelIsa;

constexpr KernelIsa kIsas[] = {KernelIsa::kVec4, KernelIsa::kAvx2, KernelIsa::kAvx512};

std::vector<KernelIsa> SupportedIsas() {
  std::vector<KernelIsa> isas;
  for (KernelIsa isa : kIsas) {
    if (internal::KernelIsaSupported(isa)) {
      isas.push_back(isa);
    }
  }
  return isas;
}

class RandomNormalAvx2Test : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!internal::KernelIsaSupported(KernelIsa::kAvx2)) {
      GTEST_SKIP() << "this CPU has no AVX2";
    }
  }
};

class RandomNormalAvx512Test : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!internal::KernelIsaSupported(KernelIsa::kAvx512)) {
      GTEST_SKIP() << "this CPU has no AVX-512F";
    }
  }
};

std::string Hex(float value) { return StrFormat("0x%08x", std::bit_cast<uint32_t>(value)); }

// The first index at which got and want differ in their bits, or -1.
int64_t FirstDifference(std::span<const float> got, std::span<const float> want) {
  EXPECT_EQ(got.size(), want.size());
  // (An empty vector's data() may be null, which memcmp must not get.)
  if (got.empty() || std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) == 0) {
    return -1;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<uint32_t>(got[i]) != std::bit_cast<uint32_t>(want[i])) {
      return static_cast<int64_t>(i);
    }
  }
  return -1;
}

// The seed's float for one pair of uniforms.
float SeedValue(double u1, double u2, float stddev) {
  return static_cast<float>(NaiveBoxMuller(u1, u2)) * stddev;
}

// RandomNormalInto on `isa` against the seed loop from the same seed: every value, and
// the Rng's next output afterwards.
void ExpectMatchesSeedLoop(KernelIsa isa, uint64_t seed, size_t length, float stddev) {
  Rng rng(seed);
  Rng seed_rng(seed);
  std::vector<float> got(length);
  std::vector<float> want(length);
  internal::RandomNormalInto(isa, got, rng, stddev);
  NaiveRandomNormalInto(want, seed_rng, stddev);
  const int64_t at = FirstDifference(got, want);
  EXPECT_EQ(at, -1) << internal::KernelIsaName(isa) << ", seed " << seed << ", length "
                    << length << ", stddev " << stddev << ": value " << at << " is "
                    << (at < 0 ? "" : Hex(got[static_cast<size_t>(at)])) << ", the seed's "
                    << (at < 0 ? "" : Hex(want[static_cast<size_t>(at)]));
  EXPECT_EQ(rng.NextUint64(), seed_rng.NextUint64())
      << internal::KernelIsaName(isa) << ": the Rng moved differently, length " << length;
}

void CheckLengthsAndScales(KernelIsa isa) {
  std::vector<size_t> lengths;
  for (size_t length = 0; length <= 17; ++length) {
    lengths.push_back(length);
  }
  // Around RandomNormalInto's 256-value chunks, and several chunks.
  lengths.insert(lengths.end(), {255, 256, 257, 4096});
  // 1e-38 is a float denormal, and so is every product with it below about 1.18.
  for (float stddev : {1.0f, 0.1f, 3.0f, 1e-38f}) {
    for (size_t length : lengths) {
      ExpectMatchesSeedLoop(isa, 1000 + length, length, stddev);
    }
  }
}

TEST(RandomNormalTest, MatchesSeedLoopBitForBit) { CheckLengthsAndScales(KernelIsa::kVec4); }
TEST_F(RandomNormalAvx2Test, MatchesSeedLoopBitForBit) {
  CheckLengthsAndScales(KernelIsa::kAvx2);
}
TEST_F(RandomNormalAvx512Test, MatchesSeedLoopBitForBit) {
  CheckLengthsAndScales(KernelIsa::kAvx512);
}

// 10^7 values over 8 seeds on every supported ISA, each seed's oracle computed once.
TEST(RandomNormalLongTest, TenMillionValuesMatchSeedLoop) {
  constexpr size_t kPerSeed = 1'250'000;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng seed_rng(seed);
    std::vector<float> want(kPerSeed);
    NaiveRandomNormalInto(want, seed_rng, 0.1f);
    const uint64_t next = seed_rng.NextUint64();
    for (KernelIsa isa : SupportedIsas()) {
      Rng rng(seed);
      std::vector<float> got(kPerSeed);
      internal::RandomNormalInto(isa, got, rng, 0.1f);
      EXPECT_EQ(FirstDifference(got, want), -1)
          << internal::KernelIsaName(isa) << ", seed " << seed;
      EXPECT_EQ(rng.NextUint64(), next) << internal::KernelIsaName(isa) << ", seed " << seed;
    }
  }
}

// The public entry points, on the ISA this CPU dispatches to.
TEST(RandomNormalPublicTest, MatchesSeedLoop) {
  Rng rng(77);
  Rng seed_rng(77);
  const Tensor got = RandomNormal(TensorShape({37, 19}), rng, 0.5f);
  std::vector<float> want(37 * 19);
  NaiveRandomNormalInto(want, seed_rng, 0.5f);
  EXPECT_EQ(FirstDifference(got.floats(), want), -1);
  std::vector<float> more(300);
  std::vector<float> more_want(300);
  RandomNormalInto(more, rng);
  NaiveRandomNormalInto(more_want, seed_rng, 1.0f);
  EXPECT_EQ(FirstDifference(more, more_want), -1);
  EXPECT_EQ(rng.NextUint64(), seed_rng.NextUint64());
}

// Rng::NextGaussian and BoxMuller are the seed's expression.
TEST(RandomNormalPublicTest, NextGaussianIsTheSeedExpression) {
  Rng rng(5);
  Rng seed_rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u1 = seed_rng.NextDouble();
    const double u2 = seed_rng.NextDouble();
    const double want = NaiveBoxMuller(u1, u2);
    EXPECT_EQ(std::bit_cast<uint64_t>(rng.NextGaussian()), std::bit_cast<uint64_t>(want));
    EXPECT_EQ(std::bit_cast<uint64_t>(BoxMuller(u1, u2)), std::bit_cast<uint64_t>(want));
  }
}

// ClusteredImages draws each row's label, then the row's noise through RandomNormalInto,
// then adds the class centre: the seed's per-element loop, bit for bit.
TEST(ClusteredImagesTest, SampleMatchesSeedLoop) {
  ClusteredImages::Options options;
  options.feature_dims = 37;
  options.num_classes = 5;
  options.cluster_stddev = 0.35;
  options.seed = 11;
  const ClusteredImages images(options);
  Rng rng(5);
  const ImageBatch batch = images.Sample(23, rng);

  Rng center_rng(options.seed);
  std::vector<float> centers(static_cast<size_t>(options.num_classes * options.feature_dims));
  NaiveRandomNormalInto(centers, center_rng, 1.0f);
  Rng seed_rng(5);
  std::vector<float> want;
  for (int64_t i = 0; i < 23; ++i) {
    const int64_t label = static_cast<int64_t>(
        seed_rng.NextBounded(static_cast<uint64_t>(options.num_classes)));
    EXPECT_EQ(batch.labels.ints()[static_cast<size_t>(i)], label) << "row " << i;
    for (int64_t d = 0; d < options.feature_dims; ++d) {
      const double u1 = seed_rng.NextDouble();
      const double u2 = seed_rng.NextDouble();
      want.push_back(centers[static_cast<size_t>(label * options.feature_dims + d)] +
                     static_cast<float>(NaiveBoxMuller(u1, u2)) *
                         static_cast<float>(options.cluster_stddev));
    }
  }
  EXPECT_EQ(FirstDifference(batch.features.floats(), want), -1);
  EXPECT_EQ(rng.NextUint64(), seed_rng.NextUint64());
}

// Uniforms whose angle 2 pi u2 (rounded to double) lands nearest pi/2 and 3 pi/2 of any
// u2 that Rng::NextDouble returns, a multiple of 2^-53 (a search of 2^12 neighbours
// each side against 200-bit values): cos is 6.1e-17 and -1.8e-16 there, and the
// reduction's result is that small.
constexpr double kU2NearestHalfPi = 0.25;
constexpr double kU2NearestThreeHalvesPi = 0.75;

// Checks GaussiansInto on `isa` against the seed's expression for every pair, and
// returns how many lanes it sent to BoxMuller.
int64_t ExpectPairsMatchSeed(KernelIsa isa, const std::vector<double>& u1,
                             const std::vector<double>& u2, float stddev) {
  std::vector<float> got(u1.size());
  const int64_t fallbacks = internal::GaussiansInto(isa, u1, u2, stddev, got);
  for (size_t i = 0; i < u1.size(); ++i) {
    const float want = SeedValue(u1[i], u2[i], stddev);
    EXPECT_EQ(std::bit_cast<uint32_t>(got[i]), std::bit_cast<uint32_t>(want))
        << internal::KernelIsaName(isa) << " at u1 = " << StrFormat("%a", u1[i])
        << ", u2 = " << StrFormat("%a", u2[i]) << ": " << Hex(got[i]) << ", the seed's "
        << Hex(want);
  }
  return fallbacks;
}

void CheckPinnedPairs(KernelIsa isa) {
  ASSERT_LT(std::fabs(cosl(static_cast<long double>(2.0 * M_PI * kU2NearestHalfPi))), 1e-16L);
  ASSERT_LT(std::fabs(cosl(static_cast<long double>(2.0 * M_PI * kU2NearestThreeHalvesPi))),
            2e-16L);
  const double u1s[] = {0.0,   0x1p-53,    1.0 - 0x1p-53, 0.5, 0x1.6a09e667f3bcdp-1,
                        0.125, 0x1.2p-900, 0.999};
  const double u2s[] = {0.0,
                        kU2NearestHalfPi,
                        kU2NearestHalfPi + 0x1p-53,
                        kU2NearestThreeHalvesPi,
                        kU2NearestThreeHalvesPi - 0x1p-53,
                        0.5,
                        0x1p-53,
                        1.0 - 0x1p-53,
                        0.125,
                        0.375};
  std::vector<double> u1;
  std::vector<double> u2;
  for (double a : u1s) {
    for (double b : u2s) {
      u1.push_back(a);
      u2.push_back(b);
    }
  }
  for (float stddev : {1.0f, 0.1f, 1e-38f}) {
    ExpectPairsMatchSeed(isa, u1, u2, stddev);
  }
  // Every length up to two whole groups of the widest core, so each pair also runs in
  // the padded last group.
  for (size_t n = 1; n <= 17; ++n) {
    ExpectPairsMatchSeed(isa, std::vector<double>(u1.begin(), u1.begin() + n),
                         std::vector<double>(u2.begin(), u2.begin() + n), 1.0f);
  }
}

TEST(RandomNormalTest, PinnedPairsMatchSeed) { CheckPinnedPairs(KernelIsa::kVec4); }
TEST_F(RandomNormalAvx2Test, PinnedPairsMatchSeed) { CheckPinnedPairs(KernelIsa::kAvx2); }
TEST_F(RandomNormalAvx512Test, PinnedPairsMatchSeed) { CheckPinnedPairs(KernelIsa::kAvx512); }

// Pairs from the Rng whose libm value p lies within kGaussianGuard / 2 of the midpoint
// between two floats, relative to p: the core's double is within 2^-48 of p, so its own
// interval of kGaussianGuard holds that midpoint, and the guard must send it back.
void NearMidpointPairs(size_t count, std::vector<double>& u1, std::vector<double>& u2) {
  Rng rng(2718);
  while (u1.size() < count) {
    const double a = rng.NextDouble();
    const double b = rng.NextDouble();
    const double p = NaiveBoxMuller(a, b);
    const double half = internal::kGaussianGuard / 2 * std::fabs(p);
    if (static_cast<float>(p - half) != static_cast<float>(p + half)) {
      u1.push_back(a);
      u2.push_back(b);
    }
  }
}

void CheckNearMidpointPairs(KernelIsa isa) {
  std::vector<double> u1;
  std::vector<double> u2;
  NearMidpointPairs(24, u1, u2);
  EXPECT_EQ(ExpectPairsMatchSeed(isa, u1, u2, 1.0f), 24);
  // Alone, and among ordinary pairs, so each also sits in a padded group.
  for (size_t i = 0; i < u1.size(); ++i) {
    EXPECT_EQ(ExpectPairsMatchSeed(isa, {u1[i]}, {u2[i]}, 0.1f), 1);
    std::vector<double> a = {0.3, 0.6, u1[i], 0.9, 0.1, 0.2, 0.4, 0.5, 0.7};
    std::vector<double> b = {0.2, 0.4, u2[i], 0.1, 0.6, 0.7, 0.8, 0.9, 0.3};
    EXPECT_EQ(ExpectPairsMatchSeed(isa, a, b, 1.0f), 1);
  }
}

TEST(RandomNormalTest, PairsNearFloatMidpointsFallBackAndMatchSeed) {
  CheckNearMidpointPairs(KernelIsa::kVec4);
}
TEST_F(RandomNormalAvx2Test, PairsNearFloatMidpointsFallBackAndMatchSeed) {
  CheckNearMidpointPairs(KernelIsa::kAvx2);
}
TEST_F(RandomNormalAvx512Test, PairsNearFloatMidpointsFallBackAndMatchSeed) {
  CheckNearMidpointPairs(KernelIsa::kAvx512);
}

// Box–Muller of a pair in long double, on the angle 2 pi u2 rounded to double as libm
// and the core both see it.
long double ReferenceBoxMuller(double u1, double u2) {
  if (u1 < 1e-300) {
    u1 = 1e-300;
  }
  const double t = 2.0 * M_PI * u2;
  return sqrtl(-2.0L * logl(static_cast<long double>(u1))) * cosl(static_cast<long double>(t));
}

void CheckCoreError(KernelIsa isa) {
  std::vector<double> u1s = {0.0, 0.5, 0x1.6a09e667f3bcdp-1, 0x1.6a09e667f3bccp-1};
  for (int k = 1; k <= 64; ++k) {
    u1s.push_back(k * 0x1p-53);        // the smallest uniforms
    u1s.push_back(1.0 - k * 0x1p-53);  // log near 0
    u1s.push_back(0.5 + k * 0x1p-53);
    u1s.push_back(0.5 - k * 0x1p-54);
    // Around sqrt(2)/2, where 1 + f moves to the other side of the reduction.
    u1s.push_back(0x1.6a09e667f3bcdp-1 + k * 0x1p-53);
    u1s.push_back(0x1.6a09e667f3bcdp-1 - k * 0x1p-53);
  }
  for (int j = 1; j <= 53; ++j) {
    u1s.push_back(std::ldexp(1.0, -j));
  }
  std::vector<double> u2s;
  // Around every multiple of 1/8 of a turn: the zeros of cos and the quadrant edges.
  for (int eighth = 0; eighth <= 8; ++eighth) {
    for (int k = -64; k <= 64; ++k) {
      const double u2 = eighth / 8.0 + k * 0x1p-53;
      if (u2 >= 0.0 && u2 < 1.0) {
        u2s.push_back(u2);
      }
    }
  }
  Rng rng(31);
  for (int i = 0; i < 512; ++i) {
    u1s.push_back(rng.NextDouble());
    u2s.push_back(rng.NextDouble());
  }
  std::vector<double> u1;
  std::vector<double> u2;
  for (double a : u1s) {
    for (double b : u2s) {
      u1.push_back(a);
      u2.push_back(b);
    }
  }
  // And 2^18 ordinary pairs.
  for (int i = 0; i < (1 << 18); ++i) {
    u1.push_back(rng.NextDouble());
    u2.push_back(rng.NextDouble());
  }
  std::vector<float> out(u1.size());
  std::vector<double> core(u1.size());
  internal::GaussiansInto(isa, u1, u2, 1.0f, out, core);
  long double worst = 0.0L;
  size_t worst_at = 0;
  for (size_t i = 0; i < u1.size(); ++i) {
    const long double want = ReferenceBoxMuller(u1[i], u2[i]);
    const long double error = std::fabs((core[i] - want) / want);
    if (error > worst) {
      worst = error;
      worst_at = i;
    }
  }
  EXPECT_LT(worst, internal::kGaussianGuard / 256)
      << "at u1 = " << StrFormat("%a", u1[worst_at])
      << ", u2 = " << StrFormat("%a", u2[worst_at]);
  std::printf("%s: the core's largest relative error over %zu pairs is %.2f x 2^-53\n",
              internal::KernelIsaName(isa), u1.size(), static_cast<double>(worst * 0x1p53L));
}

TEST(RandomNormalTest, CoreErrorStaysUnderGuardOver256) { CheckCoreError(KernelIsa::kVec4); }
TEST_F(RandomNormalAvx2Test, CoreErrorStaysUnderGuardOver256) {
  CheckCoreError(KernelIsa::kAvx2);
}
TEST_F(RandomNormalAvx512Test, CoreErrorStaysUnderGuardOver256) {
  CheckCoreError(KernelIsa::kAvx512);
}

TEST(RandomNormalLongTest, DISABLED_BillionValuesMatchSeedLoop) {
  constexpr int64_t kValues = 1'000'000'000;
  constexpr size_t kBlock = size_t{1} << 20;
  const std::vector<KernelIsa> isas = SupportedIsas();
  std::vector<int64_t> fallbacks(isas.size(), 0);
  std::vector<int64_t> mismatches(isas.size(), 0);
  Rng rng(20261020);
  std::vector<double> u1(kBlock);
  std::vector<double> u2(kBlock);
  std::vector<float> want(kBlock);
  std::vector<float> got(kBlock);
  for (int64_t done = 0; done < kValues; done += static_cast<int64_t>(kBlock)) {
    const size_t n = static_cast<size_t>(std::min<int64_t>(kBlock, kValues - done));
    u1.resize(n);
    u2.resize(n);
    want.resize(n);
    got.resize(n);
    for (size_t i = 0; i < n; ++i) {
      u1[i] = rng.NextDouble();
      u2[i] = rng.NextDouble();
      want[i] = SeedValue(u1[i], u2[i], 1.0f);
    }
    for (size_t k = 0; k < isas.size(); ++k) {
      fallbacks[k] += internal::GaussiansInto(isas[k], u1, u2, 1.0f, got);
      const int64_t at = FirstDifference(got, want);
      if (at >= 0) {
        ++mismatches[k];
        ADD_FAILURE() << internal::KernelIsaName(isas[k]) << " at u1 = "
                      << StrFormat("%a", u1[static_cast<size_t>(at)])
                      << ", u2 = " << StrFormat("%a", u2[static_cast<size_t>(at)]);
      }
    }
  }
  for (size_t k = 0; k < isas.size(); ++k) {
    EXPECT_EQ(mismatches[k], 0);
    std::printf("%s: %lld values equal the seed's, %lld (%.2e) from the fallback\n",
                internal::KernelIsaName(isas[k]), static_cast<long long>(kValues),
                static_cast<long long>(fallbacks[k]),
                static_cast<double>(fallbacks[k]) / static_cast<double>(kValues));
  }
}

}  // namespace
}  // namespace parallax
