// Tests for the library's softmax and its exp. internal::ScalarExp is glibc 2.36's float
// expf ported without FMA, equal on every float to the variant x86-64 glibc runs on CPUs
// with FMA; SoftmaxRowsInto runs each row's seed sequence, eight or four rows side by
// side, one per vector lane, with the exp lane by lane in double precision.
//
// The kernel must equal the seed loop on the port (NaiveSoftmaxRows, in
// tests/naive_reference.h) BIT FOR BIT, compared as bit patterns so that -0.0 and
// denormals count, on every kernel ISA: SoftmaxKernelTest runs the 4-lane instantiation,
// SoftmaxKernelAvx2Test the 8-lane AVX2 one and SoftmaxKernelAvx512Test the AVX-512F one
// (8 rows, the exp on one register of 8 doubles), each skipped where the CPU lacks its
// ISA. Where a
// row's sum meets two NaNs, which payload an add returns is the compiler's choice of
// operand order (tests/matmul_kernel_test.cc explains), so a NaN only has to be a NaN.
//
// The port is pinned to outputs read from glibc 2.36's expf and never compared with the
// host's. The disabled case DISABLED_ExpCoreMatchesPortOnEveryFloat compares the lane-wise
// exp core with the port on all 2^32 floats (run it with --gtest_also_run_disabled_tests);
// it also prints, for the record only, on how many floats this host's expf differs.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/tensor/tensor_ops.h"
#include "tests/naive_reference.h"

namespace parallax {
namespace {

using internal::KernelIsa;

class SoftmaxKernelAvx2Test : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!internal::KernelIsaSupported(KernelIsa::kAvx2)) {
      GTEST_SKIP() << "this CPU has no AVX2";
    }
  }
};

class SoftmaxKernelAvx512Test : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!internal::KernelIsaSupported(KernelIsa::kAvx512)) {
      GTEST_SKIP() << "this CPU has no AVX-512F";
    }
  }
};

float FloatOfBits(uint32_t bits) { return std::bit_cast<float>(bits); }
uint32_t BitsOf(float value) { return std::bit_cast<uint32_t>(value); }
std::string Hex(uint32_t bits) { return StrFormat("0x%08x", bits); }

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

// (input bits, output bits) of glibc 2.36's expf on x86-64 with FMA.
struct Pin {
  uint32_t x;
  uint32_t exp;
};
constexpr Pin kGlibcPins[] = {
    {0x00000000, 0x3f800000},  // +0
    {0x80000000, 0x3f800000},  // -0
    {0x00000001, 0x3f800000},  // smallest denormal
    {0x807fffff, 0x3f800000},  // the negative denormal of largest magnitude
    {0x33800000, 0x3f800001},  // 2^-24
    {0xb3800000, 0x3f7fffff},  // -2^-24
    {0x3f800000, 0x402df854},  // 1
    {0xbf800000, 0x3ebc5ab2},  // -1
    {0x3f317218, 0x40000000},  // ln2
    {0xbe800000, 0x3f475f7d},  // -0.25
    {0xc0a00000, 0x3bdcc9ff},  // -5
    {0x4202422f, 0x56fc9f1c},  // glibc's SSE2 variant, which rounds x * 32/ln2 first,
    {0xc27c65d9, 0x11fa2993},  // returns other bits for these two
    {0x403911ff, 0x419031dc},  // x * 32/ln2 rounds one above what its high part rounds to,
    {0xc03911ff, 0x3d633f89},  // one below on these two: the port's k and r are one off
    {0xc1999e66, 0x319d3eda},  // the FMA variant's here, its result is not
    {0x41a00000, 0x4de75844},  // 20
    {0xc1a00000, 0x310da433},  // -20
    {0x42b00000, 0x7ef882b7},  // 88: past glibc's |x| >= 88 check, on the main path
    {0x42b17217, 0x7f7fff84},  // the largest finite result
    {0x42b17218, 0x7f800000},  // the first overflow to +inf
    {0x7f7fffff, 0x7f800000},  // the largest float
    {0x7f800000, 0x7f800000},  // +inf
    {0xff800000, 0x00000000},  // -inf
    {0xff7fffff, 0x00000000},  // the most negative float
    {0x7fc00000, 0x7fc00000},  // NaN
    {0xffc00000, 0xffc00000},  // negative NaN
    {0x7f800001, 0x7fc00001},  // signaling NaN, quieted by x + x
    {0xc2aeac4f, 0x00800026},  // the smallest normal result
    {0xc2aeac50, 0x007fffe6},  // the first denormal result
    {0xc2b00000, 0x0041edc4},  // -88
    {0xc2c00000, 0x000005a9},  // -96
    {0xc2ce8ecf, 0x00000001},  // just above log(2^-149)
    {0xc2ce8ed0, 0x00000001},  // just below: glibc's errno branch, same bits
    {0xc2cff1b4, 0x00000001},  // the last input that does not underflow to zero
    {0xc2cff1b5, 0x00000000},  // the next float down: +0
};

TEST(ExpPortTest, MatchesGlibcOutputs) {
  for (const Pin& pin : kGlibcPins) {
    EXPECT_EQ(BitsOf(internal::ScalarExp(FloatOfBits(pin.x))), pin.exp)
        << "exp(" << Hex(pin.x) << ")";
  }
}

// Runs ExpInto on `isa` and expects ScalarExp's bits for every element.
void ExpectExpCoreMatchesPort(KernelIsa isa, const std::vector<uint32_t>& input_bits,
                              const std::string& context) {
  const int64_t n = static_cast<int64_t>(input_bits.size());
  Tensor in = Tensor::Zeros(TensorShape({n}));
  for (int64_t i = 0; i < n; ++i) {
    in.mutable_floats()[static_cast<size_t>(i)] =
        FloatOfBits(input_bits[static_cast<size_t>(i)]);
  }
  Tensor out = Tensor::Filled(TensorShape({n}), kNaN);
  internal::ExpInto(isa, out, in);
  for (int64_t i = 0; i < n; ++i) {
    const uint32_t x = input_bits[static_cast<size_t>(i)];
    ASSERT_EQ(BitsOf(out.floats()[static_cast<size_t>(i)]),
              BitsOf(internal::ScalarExp(FloatOfBits(x))))
        << context << ": element " << i << ", x = " << Hex(x);
  }
}

// Every pin in every lane of a strip of otherwise ordinary inputs, every 251st bit
// pattern (17.1 million floats), and every length from 0 to 33: no strip, whole strips
// and every tail on the port.
void CheckExpCore(KernelIsa isa) {
  Rng rng(26);
  for (const Pin& pin : kGlibcPins) {
    for (size_t lane = 0; lane < 8; ++lane) {
      std::vector<uint32_t> strip;
      for (int i = 0; i < 8; ++i) {
        strip.push_back(BitsOf(static_cast<float>(rng.NextUniform(-90.0, 0.0))));
      }
      strip[lane] = pin.x;
      ExpectExpCoreMatchesPort(isa, strip, StrFormat("%s in lane %zu", Hex(pin.x).c_str(), lane));
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
  }
  std::vector<uint32_t> chunk;
  for (uint64_t bits = 0; bits < (uint64_t{1} << 32); bits += 251) {
    chunk.push_back(static_cast<uint32_t>(bits));
    if (chunk.size() == 4096) {
      ExpectExpCoreMatchesPort(isa, chunk, "sweep chunk from " + Hex(chunk.front()));
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
      chunk.clear();
    }
  }
  ExpectExpCoreMatchesPort(isa, chunk, "last sweep chunk");
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  for (int n = 0; n <= 33; ++n) {
    std::vector<uint32_t> inputs;
    for (int i = 0; i < n; ++i) {
      inputs.push_back(BitsOf(static_cast<float>(rng.NextUniform(-90.0, 90.0))));
    }
    ExpectExpCoreMatchesPort(isa, inputs, StrFormat("length %d", n));
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
}

TEST(SoftmaxKernelTest, ExpCoreMatchesPortBitForBit) { CheckExpCore(KernelIsa::kVec4); }
TEST_F(SoftmaxKernelAvx2Test, ExpCoreMatchesPortBitForBit) { CheckExpCore(KernelIsa::kAvx2); }
TEST_F(SoftmaxKernelAvx512Test, ExpCoreMatchesPortBitForBit) {
  CheckExpCore(KernelIsa::kAvx512);
}

// Equal bits, except that a NaN only has to be a NaN.
void ExpectSameValues(const Tensor& got, const Tensor& want, const std::string& context) {
  ASSERT_TRUE(got.shape() == want.shape()) << context;
  for (size_t i = 0; i < want.floats().size(); ++i) {
    const float g = got.floats()[i];
    const float w = want.floats()[i];
    if (std::isnan(w)) {
      ASSERT_TRUE(std::isnan(g)) << context << " at flat element " << i << ": " << g;
    } else {
      ASSERT_EQ(BitsOf(g), BitsOf(w))
          << context << " at flat element " << i << ": " << g << " vs " << w;
    }
  }
}

// Runs the kernel on `isa` into a fresh output and into a reused one pre-filled with NaN
// (so every element must be written), and compares both with the seed loop.
void CheckAgainstOracle(KernelIsa isa, const Tensor& logits, const std::string& context) {
  const Tensor want = NaiveSoftmaxRows(logits);
  Tensor fresh;
  internal::SoftmaxRowsInto(isa, fresh, logits);
  ExpectSameValues(fresh, want, context + " (fresh output)");
  Tensor reused = Tensor::Filled(logits.shape(), kNaN);
  internal::SoftmaxRowsInto(isa, reused, logits);
  ExpectSameValues(reused, want, context + " (reused output)");
}

std::string ShapeContext(const char* kind, int64_t rows, int64_t cols) {
  return StrFormat("%s [%ld, %ld]", kind, static_cast<long>(rows), static_cast<long>(cols));
}

// Row counts: no whole group, every remainder after one or two groups of 4 or 8, and
// skew's 64. Column counts: every transpose-block remainder, lm's 32 and skew's 64, and
// 2000, whose tile of one group of rows (64 KB at 8 lanes) is larger than L1.
constexpr int64_t kRowCounts[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 64};
constexpr int64_t kColCounts[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,  10,
                                  11, 12, 13, 14, 15, 16, 17, 32, 64, 2000};

void CheckShapes(KernelIsa isa) {
  Rng rng(61);
  for (int64_t rows : kRowCounts) {
    for (int64_t cols : kColCounts) {
      const Tensor logits = RandomNormal(TensorShape({rows, cols}), rng, 4.0f);
      CheckAgainstOracle(isa, logits, ShapeContext("normal", rows, cols));
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
  }
}

TEST(SoftmaxKernelTest, ShapesMatchSeedLoopBitForBit) { CheckShapes(KernelIsa::kVec4); }
TEST_F(SoftmaxKernelAvx2Test, ShapesMatchSeedLoopBitForBit) { CheckShapes(KernelIsa::kAvx2); }
TEST_F(SoftmaxKernelAvx512Test, ShapesMatchSeedLoopBitForBit) {
  CheckShapes(KernelIsa::kAvx512);
}

// Rows of special kinds side by side, so that each lane of a group meets a different one:
// NaN in column 0 (the max stays NaN) or later (std::max skips it, its exp is NaN), +inf
// (inf - inf is NaN), -inf (exp is 0), -0 against +0 (std::max keeps the first), a
// row whose values are all equal, a row whose maximum is far above the rest (their exps
// underflow, to denormals or to zero), and a row of huge magnitudes.
enum class RowKind { kNormal, kNaNFirst, kNaNLater, kPosInf, kNegInf, kZeros, kEqual,
                     kFarBelow, kHuge, kCount };

void FillRow(RowKind kind, float* row, int64_t cols, Rng& rng) {
  for (int64_t c = 0; c < cols; ++c) {
    row[c] = static_cast<float>(rng.NextGaussian()) * 3.0f;
  }
  const auto at = [&](int64_t c) -> float& { return row[std::min(c, cols - 1)]; };
  switch (kind) {
    case RowKind::kNormal:
    case RowKind::kCount:
      break;
    case RowKind::kNaNFirst:
      row[0] = kNaN;
      break;
    case RowKind::kNaNLater:
      at(cols / 2) = kNaN;
      break;
    case RowKind::kPosInf:
      at(cols / 3) = kInf;
      break;
    case RowKind::kNegInf:
      at(cols / 3) = -kInf;
      row[0] = -kInf;
      break;
    case RowKind::kZeros:
      for (int64_t c = 0; c < cols; ++c) {
        row[c] = c % 2 == 0 ? -0.0f : 0.0f;
      }
      break;
    case RowKind::kEqual:
      std::fill_n(row, cols, 1.25f);
      break;
    case RowKind::kFarBelow:
      for (int64_t c = 0; c < cols; ++c) {
        row[c] = -80.0f - static_cast<float>(rng.NextUniform(0.0, 40.0));
      }
      at(cols / 2) = 20.0f;
      break;
    case RowKind::kHuge:
      for (int64_t c = 0; c < cols; ++c) {
        row[c] = static_cast<float>(rng.NextGaussian()) * 1e30f;
      }
      break;
  }
}

void CheckSpecialRows(KernelIsa isa) {
  Rng rng(62);
  constexpr int kKinds = static_cast<int>(RowKind::kCount);
  for (int64_t rows : {int64_t{8}, int64_t{17}, int64_t{64}}) {
    for (int64_t cols : {int64_t{1}, int64_t{3}, int64_t{8}, int64_t{13}, int64_t{64}}) {
      for (int shift = 0; shift < kKinds; ++shift) {
        Tensor logits = Tensor::Zeros(TensorShape({rows, cols}));
        float* data = logits.mutable_floats().data();
        for (int64_t r = 0; r < rows; ++r) {
          FillRow(static_cast<RowKind>((r + shift) % kKinds), data + r * cols, cols, rng);
        }
        CheckAgainstOracle(isa, logits, ShapeContext("special rows", rows, cols) +
                                            StrFormat(" shift %d", shift));
        ASSERT_FALSE(::testing::Test::HasFatalFailure());
      }
    }
  }
}

TEST(SoftmaxKernelTest, SpecialRowsMatchSeedLoop) { CheckSpecialRows(KernelIsa::kVec4); }
TEST_F(SoftmaxKernelAvx2Test, SpecialRowsMatchSeedLoop) { CheckSpecialRows(KernelIsa::kAvx2); }
TEST_F(SoftmaxKernelAvx512Test, SpecialRowsMatchSeedLoop) {
  CheckSpecialRows(KernelIsa::kAvx512);
}

// The public entry points run the instantiation this CPU dispatches to, and the tile is
// per-thread scratch shared with MatMulTransposeB's packing: a wide softmax, a packed
// matmul and a narrow softmax in a row must each read only their own operand.
TEST(SoftmaxKernelTest, PublicKernelsMatchSeedLoop) {
  Rng rng(63);
  for (int64_t cols : {int64_t{2000}, int64_t{5}, int64_t{64}}) {
    const Tensor logits = RandomNormal(TensorShape({19, cols}), rng, 2.0f);
    Tensor into;
    SoftmaxRowsInto(into, logits);
    ExpectSameValues(into, NaiveSoftmaxRows(logits), ShapeContext("SoftmaxRowsInto", 19, cols));
    ExpectSameValues(SoftmaxRows(logits), NaiveSoftmaxRows(logits),
                     ShapeContext("SoftmaxRows", 19, cols));
    const Tensor a = RandomNormal(TensorShape({3, 40}), rng);
    const Tensor b = RandomNormal(TensorShape({cols, 40}), rng);
    ExpectSameValues(MatMulTransposeB(a, b), NaiveMatMulTransposeB(a, b), "MatMulTransposeB");
  }
}

// Every float, every kernel ISA this CPU supports. Takes about two minutes in a Release
// build.
TEST(SoftmaxKernelTest, DISABLED_ExpCoreMatchesPortOnEveryFloat) {
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
      internal::ExpInto(isas[k], outs[k], in);
    }
    for (int64_t i = 0; i < kChunk; ++i) {
      const float x = values[static_cast<size_t>(i)];
      const uint32_t port = BitsOf(internal::ScalarExp(x));
      for (size_t k = 0; k < isas.size(); ++k) {
        ASSERT_EQ(BitsOf(outs[k].floats()[static_cast<size_t>(i)]), port)
            << internal::KernelIsaName(isas[k]) << " at x = " << Hex(BitsOf(x));
      }
      libm_differs += BitsOf(std::exp(x)) != port ? 1 : 0;
    }
  }
  std::string names;
  for (KernelIsa isa : isas) {
    names += names.empty() ? "" : ", ";
    names += internal::KernelIsaName(isa);
  }
  std::printf("exp core == port on all 4294967296 floats (%s); this host's expf differs "
              "from the port on %llu of them\n",
              names.c_str(), static_cast<unsigned long long>(libm_differs));
}

}  // namespace
}  // namespace parallax
