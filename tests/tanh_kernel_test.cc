// Tests for the library's tanh. internal::ScalarTanh is fdlibm's float tanhf ported
// operation for operation; TanhInto runs a narrow vector core for strips whose lanes all
// have 2^-26 <= |x| < 1.5 ln2 / 2, a wide one for every other finite strip, and the port
// for strips with an infinite or NaN lane and for the tail. The kernel must equal the
// port BIT FOR BIT (compared
// as bit patterns, so -0.0, NaN payloads and denormals count) on every kernel ISA:
// TanhKernelTest runs the 4-lane instantiation, TanhKernelAvx2Test the 8-lane AVX2 one
// and TanhKernelAvx512Test the 16-lane AVX-512F cores (with the 8-lane kernel for the
// tail), each skipped where the CPU lacks its ISA.
//
// The port itself is pinned to outputs read from glibc 2.36's tanhf, which runs the same
// algorithm, and checked to stay within 2 ulp of the double-precision tanh rounded to
// float. Neither check calls the host's tanhf. The disabled case
// DISABLED_VectorMatchesPortOnEveryFloat compares the kernel with the port on all 2^32
// floats (run it with --gtest_also_run_disabled_tests); it also prints, for the record
// only, on how many floats this host's tanhf differs from the port.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/tensor/tensor_ops.h"

namespace parallax {
namespace {

using internal::KernelIsa;

class TanhKernelAvx2Test : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!internal::KernelIsaSupported(KernelIsa::kAvx2)) {
      GTEST_SKIP() << "this CPU has no AVX2";
    }
  }
};

class TanhKernelAvx512Test : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!internal::KernelIsaSupported(KernelIsa::kAvx512)) {
      GTEST_SKIP() << "this CPU has no AVX-512F";
    }
  }
};

float FloatOfBits(uint32_t bits) { return std::bit_cast<float>(bits); }
uint32_t BitsOf(float value) { return std::bit_cast<uint32_t>(value); }

// Bits of |x| at the port's branch thresholds: 2^-55, 2^-26, the first |x| above
// 0.5 ln2 / 2, 1.5 ln2 / 2 (rounded up), 1 and 22.
constexpr uint32_t kThresholds[] = {0x24000000, 0x32800000, 0x3e317219,
                                    0x3f051592, 0x3f800000, 0x41b00000};

// The sweep visits every kSweepStride-th bit pattern: about 2^32 / 251 = 17.1 million
// floats, odd so that the low mantissa bits vary too.
constexpr uint64_t kSweepStride = 251;
constexpr uint64_t kSweepChunk = 4096;

std::string Hex(uint32_t bits) { return StrFormat("0x%08x", bits); }

// Runs TanhInto on `isa` into a fresh output and into a reused one pre-filled with NaN
// (so every element must be written), and expects both to equal ScalarTanh bit for bit.
void ExpectKernelMatchesPort(KernelIsa isa, const std::vector<uint32_t>& input_bits,
                             const std::string& context) {
  const int64_t n = static_cast<int64_t>(input_bits.size());
  Tensor in = Tensor::Zeros(TensorShape({n}));
  auto values = in.mutable_floats();
  for (int64_t i = 0; i < n; ++i) {
    values[static_cast<size_t>(i)] = FloatOfBits(input_bits[static_cast<size_t>(i)]);
  }
  Tensor fresh;
  internal::TanhInto(isa, fresh, in);
  Tensor reused = Tensor::Filled(TensorShape({n}), std::numeric_limits<float>::quiet_NaN());
  internal::TanhInto(isa, reused, in);
  ASSERT_EQ(fresh.num_elements(), n) << context;
  ASSERT_EQ(reused.num_elements(), n) << context;
  for (int64_t i = 0; i < n; ++i) {
    const uint32_t x = input_bits[static_cast<size_t>(i)];
    const uint32_t want = BitsOf(internal::ScalarTanh(FloatOfBits(x)));
    ASSERT_EQ(BitsOf(fresh.floats()[static_cast<size_t>(i)]), want)
        << context << ": element " << i << ", x = " << Hex(x) << " (fresh output)";
    ASSERT_EQ(BitsOf(reused.floats()[static_cast<size_t>(i)]), want)
        << context << ": element " << i << ", x = " << Hex(x) << " (reused output)";
  }
}

void CheckStridedSweep(KernelIsa isa) {
  std::vector<uint32_t> chunk;
  for (uint64_t bits = 0; bits < (uint64_t{1} << 32); bits += kSweepStride) {
    chunk.push_back(static_cast<uint32_t>(bits));
    if (chunk.size() == kSweepChunk) {
      ExpectKernelMatchesPort(isa, chunk, "sweep chunk from " + Hex(chunk.front()));
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
      chunk.clear();
    }
  }
  ExpectKernelMatchesPort(isa, chunk, "last sweep chunk");
}

TEST(TanhKernelTest, StridedSweepMatchesPortBitForBit) { CheckStridedSweep(KernelIsa::kVec4); }
TEST_F(TanhKernelAvx2Test, StridedSweepMatchesPortBitForBit) {
  CheckStridedSweep(KernelIsa::kAvx2);
}
TEST_F(TanhKernelAvx512Test, StridedSweepMatchesPortBitForBit) {
  CheckStridedSweep(KernelIsa::kAvx512);
}

// +-4096 ulp around each threshold, of either sign. The window starts 0 to 15 patterns
// early, so the threshold falls on every lane of a strip, and strips on either side mix
// in-range and out-of-range lanes (at 0.5 ln2 / 2: lanes with and without the k = -1
// reduction, which a strip skips when no lane needs it).
void CheckThresholdWindows(KernelIsa isa) {
  for (uint32_t threshold : kThresholds) {
    for (uint32_t sign : {0x00000000u, 0x80000000u}) {
      for (uint32_t shift = 0; shift < 16; ++shift) {
        std::vector<uint32_t> window;
        for (uint32_t bits = threshold - 4096 - shift; bits <= threshold + 4096; ++bits) {
          window.push_back(bits | sign);
        }
        ExpectKernelMatchesPort(
            isa, window,
            StrFormat("window at %s, shift %u", Hex(threshold | sign).c_str(), shift));
        ASSERT_FALSE(::testing::Test::HasFatalFailure());
      }
    }
  }
}

TEST(TanhKernelTest, ThresholdWindowsMatchPortBitForBit) {
  CheckThresholdWindows(KernelIsa::kVec4);
}
TEST_F(TanhKernelAvx2Test, ThresholdWindowsMatchPortBitForBit) {
  CheckThresholdWindows(KernelIsa::kAvx2);
}
TEST_F(TanhKernelAvx512Test, ThresholdWindowsMatchPortBitForBit) {
  CheckThresholdWindows(KernelIsa::kAvx512);
}

// Inputs the narrow core takes, of random sign: |x| in [2^-26, 0.5).
std::vector<uint32_t> InRangeBits(int64_t n, Rng& rng) {
  std::vector<uint32_t> bits;
  for (int64_t i = 0; i < n; ++i) {
    const uint32_t magnitude = 0x32800000u + static_cast<uint32_t>(rng.NextBounded(
                                                 0x3f000000u - 0x32800000u));
    bits.push_back(magnitude | (rng.NextBounded(2) == 1 ? 0x80000000u : 0u));
  }
  return bits;
}

// 16 narrow-core inputs (one 16-lane strip, or two of 8), with one lane at every
// position replaced by an input outside the narrow core's range: the strip then runs the
// wide core, or the port where that lane is infinite or NaN.
void CheckMixedStrips(KernelIsa isa) {
  const uint32_t outside[] = {
      0x00000000, 0x80000000, 0x00000001, 0x807fffff, 0x23ffffff, 0x327fffff, 0x3f051592,
      0xbf400000, 0x3f800000, 0x40a00000, 0xc1f00000, 0x7f800000, 0xff800000, 0x7fc00000,
      0xffc00000, 0x7f800001};
  Rng rng(25);
  for (uint32_t bad : outside) {
    for (size_t lane = 0; lane < 16; ++lane) {
      std::vector<uint32_t> strip = InRangeBits(16, rng);
      strip[lane] = bad;
      ExpectKernelMatchesPort(isa, strip,
                              StrFormat("%s in lane %zu", Hex(bad).c_str(), lane));
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
  }
}

TEST(TanhKernelTest, MixedStripsMatchPortBitForBit) { CheckMixedStrips(KernelIsa::kVec4); }
TEST_F(TanhKernelAvx2Test, MixedStripsMatchPortBitForBit) {
  CheckMixedStrips(KernelIsa::kAvx2);
}
TEST_F(TanhKernelAvx512Test, MixedStripsMatchPortBitForBit) {
  CheckMixedStrips(KernelIsa::kAvx512);
}

// Strips of narrow-core inputs that skip the k = -1 reduction (|x| at most
// 0.5 ln2 / 2), with one lane at every position replaced by an input that needs it:
// the strip then runs the narrow core with the reduction, and every other lane must
// keep its k = 0 result. And the reverse: strips that reduce with one lane that does
// not.
void CheckReducingLanes(KernelIsa isa) {
  Rng rng(29);
  // A float of random sign whose |x| has bits in [lo, end).
  auto signed_in = [&](uint32_t lo, uint32_t end) {
    return (lo + static_cast<uint32_t>(rng.NextBounded(end - lo))) |
           (rng.NextBounded(2) == 1 ? 0x80000000u : 0u);
  };
  constexpr uint32_t kReduceFrom = 0x3e317219;  // the first |x| that reduces
  for (bool reducing_strip : {false, true}) {
    for (size_t lane = 0; lane < 16; ++lane) {
      std::vector<uint32_t> strip;
      for (size_t l = 0; l < 16; ++l) {
        const bool reduces = (l == lane) != reducing_strip;
        strip.push_back(reduces ? signed_in(kReduceFrom, 0x3f051592)
                                : signed_in(0x32800000, kReduceFrom));
      }
      ExpectKernelMatchesPort(isa, strip,
                              StrFormat("%s strip, lane %zu the other kind",
                                        reducing_strip ? "reducing" : "k = 0", lane));
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
  }
}

TEST(TanhKernelTest, ReducingLanesMatchPortBitForBit) { CheckReducingLanes(KernelIsa::kVec4); }
TEST_F(TanhKernelAvx2Test, ReducingLanesMatchPortBitForBit) {
  CheckReducingLanes(KernelIsa::kAvx2);
}
TEST_F(TanhKernelAvx512Test, ReducingLanesMatchPortBitForBit) {
  CheckReducingLanes(KernelIsa::kAvx512);
}

// Finite inputs of random sign and magnitude, from 2^-64 to 2^7, so that one strip
// mixes lanes from every branch of the port: the wide core's per-lane selects. A trained
// layer's pre-activations are of this kind (a word LM's reach |x| of 4 to 7).
void CheckWideStrips(KernelIsa isa) {
  Rng rng(28);
  std::vector<uint32_t> bits;
  for (int i = 0; i < 1 << 16; ++i) {
    const uint32_t magnitude = 0x1f800000u + static_cast<uint32_t>(rng.NextBounded(
                                                 0x43000000u - 0x1f800000u));
    bits.push_back(magnitude | (rng.NextBounded(2) == 1 ? 0x80000000u : 0u));
  }
  ExpectKernelMatchesPort(isa, bits, "random magnitudes");
}

TEST(TanhKernelTest, WideStripsMatchPortBitForBit) { CheckWideStrips(KernelIsa::kVec4); }
TEST_F(TanhKernelAvx2Test, WideStripsMatchPortBitForBit) {
  CheckWideStrips(KernelIsa::kAvx2);
}
TEST_F(TanhKernelAvx512Test, WideStripsMatchPortBitForBit) {
  CheckWideStrips(KernelIsa::kAvx512);
}

// Lengths 0 to max_length: no strip, part of one, and every tail after one or two
// strips. Each length runs on narrow-core inputs and on random magnitudes, which take
// the wide core.
void CheckLengths(KernelIsa isa, int64_t max_length) {
  Rng rng(26);
  for (int64_t n = 0; n <= max_length; ++n) {
    ExpectKernelMatchesPort(isa, InRangeBits(n, rng),
                            StrFormat("length %ld", static_cast<long>(n)));
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    std::vector<uint32_t> wide;
    for (int64_t i = 0; i < n; ++i) {
      wide.push_back(0x1f800000u +
                     static_cast<uint32_t>(rng.NextBounded(0x43000000u - 0x1f800000u)));
    }
    ExpectKernelMatchesPort(isa, wide, StrFormat("length %ld, wide", static_cast<long>(n)));
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
}

TEST(TanhKernelTest, EveryLengthUpTo17MatchesPortBitForBit) {
  CheckLengths(KernelIsa::kVec4, 17);
}
TEST_F(TanhKernelAvx2Test, EveryLengthUpTo17MatchesPortBitForBit) {
  CheckLengths(KernelIsa::kAvx2, 17);
}
// Two 16-lane strips and every tail the 8-lane kernel takes after none, one or two.
TEST_F(TanhKernelAvx512Test, EveryLengthUpTo33MatchesPortBitForBit) {
  CheckLengths(KernelIsa::kAvx512, 33);
}

// The public kernels run the instantiation this CPU dispatches to.
TEST(TanhKernelTest, PublicKernelsMatchPort) {
  Rng rng(27);
  Tensor x = RandomNormal(TensorShape({64, 128}), rng, 0.25f);
  Tensor into;
  TanhInto(into, x);
  Tensor allocated = Tanh(x);
  for (size_t i = 0; i < x.floats().size(); ++i) {
    const uint32_t want = BitsOf(internal::ScalarTanh(x.floats()[i]));
    ASSERT_EQ(BitsOf(into.floats()[i]), want) << "TanhInto, element " << i;
    ASSERT_EQ(BitsOf(allocated.floats()[i]), want) << "Tanh, element " << i;
  }
}

// (input bits, output bits) of glibc 2.36's tanhf, which runs fdlibm's algorithm.
struct Pin {
  uint32_t x;
  uint32_t tanh;
};
constexpr Pin kGlibcPins[] = {
    {0x00000000, 0x00000000},  // +0
    {0x80000000, 0x80000000},  // -0
    {0x00000001, 0x00000001},  // smallest denormal: x * (1 + x)
    {0x807fffff, 0x807fffff},  // the negative denormal of largest magnitude
    {0x21800000, 0x21800000},  // 2^-60
    {0xa3ffffff, 0xa3ffffff},  // just below 2^-55
    {0x24000000, 0x24000000},  // 2^-55: expm1f returns its argument
    {0x327fffff, 0x327fffff},  // just below 2^-26
    {0x32800000, 0x32800000},  // 2^-26: the narrow core's first input, k = 0
    {0xbc7b912c, 0xbc7b8c1e},  // -0x1.f72258p-7: 2 ulp from the double tanh
    {0x3e317218, 0x3e2fb0cd},  // 0.5 ln2 / 2: the last k = 0 input
    {0xbe317219, 0xbe2fb0cd},  // the first k = -1 input, negative
    {0x3e5c28f6, 0x3e58d44b},  // 0.215, skew's largest pre-activation
    {0xbea8f5c3, 0xbea31529},  // -0.330, lm's largest pre-activation
    {0x3f051591, 0x3ef486f8},  // the narrow core's last input
    {0x3f051592, 0x3ef486f8},  // 1.5 ln2 / 2: expm1f's general reduction, k = -2
    {0xbf400000, 0xbf22991f},  // -0.75: k = -2
    {0x3f7fffff, 0x3f42f7d5},  // just below 1
    {0x3f800000, 0x3f42f7d6},  // 1: expm1f(2|x|), k = 3 < 23
    {0xc0a00000, 0xbf7ffa0d},  // -5: k = 14
    {0x40f00000, 0x3f7ffff6},  // 7.5: k = 22
    {0x41000000, 0x3f7ffffc},  // 8: k = 23
    {0xc1a00000, 0xbf800000},  // -20: k = 58 > 56
    {0x41afffff, 0x3f800000},  // just below 22
    {0x41b00000, 0x3f800000},  // 22: 1 - tiny
    {0xc2c80000, 0xbf800000},  // -100
    {0x7f7fffff, 0x3f800000},  // largest float
    {0x7f800000, 0x3f800000},  // +inf
    {0xff800000, 0xbf800000},  // -inf
    {0x7fc00000, 0x7fc00000},  // NaN
    {0xffc00000, 0xffc00000},  // negative NaN
};

TEST(TanhPortTest, MatchesGlibcOutputsOnEveryBranch) {
  for (const Pin& pin : kGlibcPins) {
    EXPECT_EQ(BitsOf(internal::ScalarTanh(FloatOfBits(pin.x))), pin.tanh)
        << "tanh(" << Hex(pin.x) << ")";
  }
}

// Distance in floats between a and b, neither NaN.
int64_t UlpDistance(float a, float b) {
  auto ordered = [](float v) {
    const int64_t bits = std::bit_cast<int32_t>(v);
    return bits < 0 ? int64_t{std::numeric_limits<int32_t>::min()} - bits : bits;
  };
  return std::llabs(ordered(a) - ordered(b));
}

TEST(TanhPortTest, WithinTwoUlpOfDoubleTanhOnTheSweep) {
  int64_t worst = 0;
  uint32_t worst_x = 0;
  for (uint64_t bits = 0; bits < (uint64_t{1} << 32); bits += kSweepStride) {
    const float x = FloatOfBits(static_cast<uint32_t>(bits));
    const float port = internal::ScalarTanh(x);
    if (std::isnan(x)) {
      ASSERT_TRUE(std::isnan(port)) << Hex(static_cast<uint32_t>(bits));
      continue;
    }
    const int64_t ulps = UlpDistance(port, static_cast<float>(std::tanh(static_cast<double>(x))));
    if (ulps > worst) {
      worst = ulps;
      worst_x = static_cast<uint32_t>(bits);
    }
  }
  EXPECT_LE(worst, 2) << "at x = " << Hex(worst_x);
}

// Every float, every kernel ISA this CPU supports. Takes about four minutes in a
// Release build.
TEST(TanhKernelTest, DISABLED_VectorMatchesPortOnEveryFloat) {
  std::vector<KernelIsa> isas;
  for (KernelIsa isa : {KernelIsa::kVec4, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (internal::KernelIsaSupported(isa)) {
      isas.push_back(isa);
    }
  }
  constexpr int64_t kChunk = 1 << 16;
  Tensor in = Tensor::Zeros(TensorShape({kChunk}));
  std::vector<Tensor> outs(isas.size());
  uint64_t libm_differs = 0;
  for (uint64_t base = 0; base < (uint64_t{1} << 32); base += kChunk) {
    auto values = in.mutable_floats();
    for (int64_t i = 0; i < kChunk; ++i) {
      values[static_cast<size_t>(i)] = FloatOfBits(static_cast<uint32_t>(base + i));
    }
    for (size_t k = 0; k < isas.size(); ++k) {
      internal::TanhInto(isas[k], outs[k], in);
    }
    for (int64_t i = 0; i < kChunk; ++i) {
      const float x = values[static_cast<size_t>(i)];
      const uint32_t port = BitsOf(internal::ScalarTanh(x));
      for (size_t k = 0; k < isas.size(); ++k) {
        ASSERT_EQ(BitsOf(outs[k].floats()[static_cast<size_t>(i)]), port)
            << internal::KernelIsaName(isas[k]) << " at x = " << Hex(BitsOf(x));
      }
      libm_differs += BitsOf(std::tanh(x)) != port ? 1 : 0;
    }
  }
  std::string names;
  for (KernelIsa isa : isas) {
    names += names.empty() ? "" : ", ";
    names += internal::KernelIsaName(isa);
  }
  std::printf("kernel == port on all 4294967296 floats (%s); this host's tanhf differs "
              "from the port on %llu of them\n",
              names.c_str(), static_cast<unsigned long long>(libm_differs));
}

}  // namespace
}  // namespace parallax
