// Property tests for the register-strip matmul kernels: MatMulInto,
// MatMulTransposeAInto and MatMulTransposeBInto must reproduce the seed's scalar loops
// (tests/naive_reference.h) BIT-FOR-BIT — compared with memcmp, so -0.0, NaNs and
// denormals count — across strip remainders, degenerate m = 1 / k = 1 shapes, and the
// special values that exercise the zero-skip path.
//
// The kernels run one of two instantiations of their core, chosen per process from the
// CPU (internal::ActiveMatMulIsa), so on an AVX2 machine the public kernels never run
// the 4-lane one. Each check therefore calls both instantiations directly:
// MatMulKernelTest the 4-lane one, MatMulKernelAvx2Test the 8-lane AVX2 one, skipped
// where the CPU lacks AVX2.
//
// One thing is outside any kernel's control: when an add meets two NaNs with different
// bit patterns, which one it returns is left to the compiler's choice of operand order
// (C++ does not specify it). The seed's own MatMulTransposeB loop returns different NaN
// bits at -O0, -O2 and -O3 for the same inputs. So the bit-for-bit tests plant the NaN
// the hardware itself produces (for inf - inf or 0 * inf): every NaN of the computation
// then has one bit pattern and memcmp is exact. NaNs with another payload are covered
// separately, bit for bit everywhere except the payload of a NaN result.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/tensor/tensor_ops.h"
#include "tests/naive_reference.h"

namespace parallax {
namespace {

struct Kernel {
  std::string name;
  // Operand shapes of C[m, n] with inner dimension k.
  std::function<TensorShape(int64_t m, int64_t k, int64_t n)> a_shape;
  std::function<TensorShape(int64_t m, int64_t k, int64_t n)> b_shape;
  std::function<void(Tensor&, const Tensor&, const Tensor&)> into;
  std::function<Tensor(const Tensor&, const Tensor&)> oracle;
};

using internal::MatMulIsa;

// The three kernels on instantiation `isa`.
std::vector<Kernel> Kernels(MatMulIsa isa) {
  auto on_isa = [isa](void (*kernel)(MatMulIsa, Tensor&, const Tensor&, const Tensor&)) {
    return [isa, kernel](Tensor& out, const Tensor& a, const Tensor& b) {
      kernel(isa, out, a, b);
    };
  };
  return {
      {"MatMul", [](int64_t m, int64_t k, int64_t) { return TensorShape({m, k}); },
       [](int64_t, int64_t k, int64_t n) { return TensorShape({k, n}); },
       on_isa(internal::MatMulInto), NaiveMatMul},
      {"MatMulTransposeA", [](int64_t m, int64_t k, int64_t) { return TensorShape({k, m}); },
       [](int64_t, int64_t k, int64_t n) { return TensorShape({k, n}); },
       on_isa(internal::MatMulTransposeAInto), NaiveMatMulTransposeA},
      {"MatMulTransposeB", [](int64_t m, int64_t k, int64_t) { return TensorShape({m, k}); },
       [](int64_t, int64_t k, int64_t n) { return TensorShape({n, k}); },
       on_isa(internal::MatMulTransposeBInto), NaiveMatMulTransposeB},
  };
}

// The NaN this machine's arithmetic produces for an invalid operation. `volatile` keeps
// the compiler from folding the product to its own constant NaN.
float HardwareNaN() {
  volatile float zero = 0.0f;
  return zero * std::numeric_limits<float>::infinity();
}

// memcmp equality; with `any_nan_payload`, a NaN result only has to be a NaN.
void ExpectSameBits(const Tensor& got, const Tensor& want, const std::string& context,
                    bool any_nan_payload = false) {
  ASSERT_TRUE(got.shape() == want.shape()) << context;
  auto gv = got.floats();
  auto wv = want.floats();
  if (std::memcmp(gv.data(), wv.data(), gv.size() * sizeof(float)) == 0) {
    return;
  }
  for (size_t i = 0; i < gv.size(); ++i) {
    if (any_nan_payload && std::isnan(gv[i]) && std::isnan(wv[i])) {
      continue;
    }
    uint32_t g;
    uint32_t w;
    std::memcpy(&g, &gv[i], sizeof(g));
    std::memcpy(&w, &wv[i], sizeof(w));
    ASSERT_EQ(g, w) << context << " at flat element " << i << ": " << gv[i] << " vs "
                    << wv[i];
  }
}

// Runs the kernel into a fresh output and into a reused output pre-filled with NaN
// (the kernels no longer zero-fill, so every element must be written), and compares
// both with the oracle.
void CheckAgainstOracle(const Kernel& kernel, const Tensor& a, const Tensor& b,
                        const std::string& context, bool any_nan_payload = false) {
  Tensor want = kernel.oracle(a, b);
  Tensor fresh;
  kernel.into(fresh, a, b);
  ExpectSameBits(fresh, want, context + " (fresh output)", any_nan_payload);
  Tensor reused = Tensor::Filled(want.shape(), std::numeric_limits<float>::quiet_NaN());
  kernel.into(reused, a, b);
  ExpectSameBits(reused, want, context + " (reused output)", any_nan_payload);
}

std::string ShapeContext(const Kernel& kernel, int64_t m, int64_t k, int64_t n) {
  return StrFormat("%s m=%ld k=%ld n=%ld", kernel.name.c_str(), static_cast<long>(m),
                   static_cast<long>(k), static_cast<long>(n));
}

// Values with exact zeros, negative zeros and denormals: the operand whose zero
// entries the MatMul and MatMulTransposeA kernels skip.
Tensor SkipOperand(const TensorShape& shape, Rng& rng) {
  Tensor t = RandomNormal(shape, rng);
  for (float& v : t.mutable_floats()) {
    double u = rng.NextDouble();
    if (u < 0.25) {
      v = 0.0f;
    } else if (u < 0.35) {
      v = -0.0f;
    } else if (u < 0.45) {
      v = static_cast<float>(rng.NextUniform(-1.0, 1.0)) * 1e-39f;  // denormal
    }
  }
  return t;
}

// Values with infinities, NaNs (`nan`), denormals and zeros: multiplied by a skipped
// zero they would turn a sum into NaN, so they tell skipping from not skipping.
Tensor NonFiniteOperand(const TensorShape& shape, Rng& rng, float nan) {
  Tensor t = RandomNormal(shape, rng);
  for (float& v : t.mutable_floats()) {
    double u = rng.NextDouble();
    if (u < 0.01) {
      v = std::numeric_limits<float>::infinity();
    } else if (u < 0.02) {
      v = -std::numeric_limits<float>::infinity();
    } else if (u < 0.03) {
      v = nan;
    } else if (u < 0.13) {
      v = static_cast<float>(rng.NextUniform(-1.0, 1.0)) * 1e-39f;
    } else if (u < 0.18) {
      v = 0.0f;
    }
  }
  return t;
}

// A row runs full strips of 8 vectors (32 columns with 4 lanes, 64 with 8), then one
// strip of the 1-7 vectors left, then single columns. Over these counts both
// instantiations run every strip width from 1 to 8 vectors and every column remainder:
//   4 lanes: 7 = 1 vector + 3 columns, 9 = 2 + 1, 21 = 5 + 1, 24 = 6, 31 = 7 + 3,
//            45 = 8 + 3 + 1, 48 = 8 + 4, 2000 = 62 full strips + 4;
//   8 lanes: 7 = 7 columns, 9 = 1 + 1, 21 = 2 + 5, 24 = 3, 33 = 4 + 1, 45 = 5 + 5,
//            48 = 6 (lm's hidden width), 63 = 7 + 7, 65 = 8 + 1, 128 = 8 + 8 (skew's).
constexpr int64_t kColumnCounts[] = {1, 7, 9, 21, 24, 31, 33, 45, 48, 63, 65, 128, 2000};

struct RowsInner {
  int64_t m;
  int64_t k;
};
constexpr RowsInner kRowsInner[] = {{1, 1}, {1, 37}, {5, 1}, {6, 29}};

// The 4-lane instantiation runs on every CPU; this fixture runs the checks on the
// 8-lane AVX2 one, where the CPU has AVX2.
class MatMulKernelAvx2Test : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!internal::MatMulIsaSupported(MatMulIsa::kAvx2)) {
      GTEST_SKIP() << "this CPU has no AVX2";
    }
  }
};

void CheckStripRemainders(MatMulIsa isa) {
  Rng rng(101);
  for (const Kernel& kernel : Kernels(isa)) {
    for (int64_t n : kColumnCounts) {
      for (RowsInner shape : kRowsInner) {
        Tensor a = RandomNormal(kernel.a_shape(shape.m, shape.k, n), rng);
        Tensor b = RandomNormal(kernel.b_shape(shape.m, shape.k, n), rng);
        CheckAgainstOracle(kernel, a, b, ShapeContext(kernel, shape.m, shape.k, n));
      }
    }
  }
}
TEST(MatMulKernelTest, StripRemaindersMatchOracleBitForBit) {
  CheckStripRemainders(MatMulIsa::kVec4);
}
TEST_F(MatMulKernelAvx2Test, StripRemaindersMatchOracleBitForBit) {
  CheckStripRemainders(MatMulIsa::kAvx2);
}

void CheckSpecialValues(MatMulIsa isa) {
  Rng rng(202);
  for (const Kernel& kernel : Kernels(isa)) {
    for (int64_t n : kColumnCounts) {
      for (RowsInner shape : kRowsInner) {
        Tensor a = SkipOperand(kernel.a_shape(shape.m, shape.k, n), rng);
        Tensor b = NonFiniteOperand(kernel.b_shape(shape.m, shape.k, n), rng, HardwareNaN());
        CheckAgainstOracle(kernel, a, b, ShapeContext(kernel, shape.m, shape.k, n));
      }
    }
  }
}
TEST(MatMulKernelTest, ZerosDenormalsInfinitiesAndNaNsMatchOracleBitForBit) {
  CheckSpecialValues(MatMulIsa::kVec4);
}
TEST_F(MatMulKernelAvx2Test, ZerosDenormalsInfinitiesAndNaNsMatchOracleBitForBit) {
  CheckSpecialValues(MatMulIsa::kAvx2);
}

void CheckForeignNaNs(MatMulIsa isa) {
  Rng rng(404);
  const float foreign_nan = -HardwareNaN();  // same class, opposite sign bit
  for (const Kernel& kernel : Kernels(isa)) {
    for (int64_t n : kColumnCounts) {
      for (RowsInner shape : kRowsInner) {
        Tensor a = SkipOperand(kernel.a_shape(shape.m, shape.k, n), rng);
        Tensor b = NonFiniteOperand(kernel.b_shape(shape.m, shape.k, n), rng, foreign_nan);
        CheckAgainstOracle(kernel, a, b, ShapeContext(kernel, shape.m, shape.k, n),
                           /*any_nan_payload=*/true);
      }
    }
  }
}
TEST(MatMulKernelTest, ForeignNaNPayloadsMatchOracleExceptNaNBits) {
  CheckForeignNaNs(MatMulIsa::kVec4);
}
TEST_F(MatMulKernelAvx2Test, ForeignNaNPayloadsMatchOracleExceptNaNBits) {
  CheckForeignNaNs(MatMulIsa::kAvx2);
}

// A zero A entry facing an infinite B row: the skipping kernels leave the sum finite,
// MatMulTransposeB (which never skipped) turns it into NaN, exactly like the oracle.
void CheckSkippedZeroAgainstInfinity(MatMulIsa isa) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (const Kernel& kernel : Kernels(isa)) {
    const int64_t m = 2;
    const int64_t k = 3;
    const int64_t n = 37;
    Tensor a = Tensor::Filled(kernel.a_shape(m, k, n), 1.5f);
    Tensor b = Tensor::Filled(kernel.b_shape(m, k, n), 2.0f);
    // a(i, 1) = 0 (and -0 for row 1); b(1, j) = inf for every j.
    auto av = a.mutable_floats();
    auto bv = b.mutable_floats();
    for (int64_t i = 0; i < m; ++i) {
      size_t at = kernel.name == "MatMulTransposeA" ? static_cast<size_t>(1 * m + i)
                                                    : static_cast<size_t>(i * k + 1);
      av[at] = i == 0 ? 0.0f : -0.0f;
    }
    for (int64_t j = 0; j < n; ++j) {
      size_t at = kernel.name == "MatMulTransposeB" ? static_cast<size_t>(j * k + 1)
                                                    : static_cast<size_t>(1 * n + j);
      bv[at] = j % 2 == 0 ? kInf : -kInf;
    }
    Tensor got;
    kernel.into(got, a, b);
    ExpectSameBits(got, kernel.oracle(a, b), kernel.name);
    if (kernel.name == "MatMulTransposeB") {
      EXPECT_TRUE(std::isnan(got.at(0))) << kernel.name;
    } else {
      EXPECT_EQ(got.at(0), 6.0f) << kernel.name;
    }
  }
}
TEST(MatMulKernelTest, SkippedZeroAgainstInfinityFollowsEachKernelsSeedRule) {
  CheckSkippedZeroAgainstInfinity(MatMulIsa::kVec4);
}
TEST_F(MatMulKernelAvx2Test, SkippedZeroAgainstInfinityFollowsEachKernelsSeedRule) {
  CheckSkippedZeroAgainstInfinity(MatMulIsa::kAvx2);
}

// k = 0: every output element is an empty sum, +0, also over a NaN-poisoned reused
// output. (The seed's MatMulTransposeB loop indexed its empty operands here, so the
// expectation is written out rather than taken from the oracle.)
void CheckEmptyInnerDimension(MatMulIsa isa) {
  for (const Kernel& kernel : Kernels(isa)) {
    for (int64_t n : kColumnCounts) {
      Tensor a = Tensor::Zeros(kernel.a_shape(3, 0, n));
      Tensor b = Tensor::Zeros(kernel.b_shape(3, 0, n));
      Tensor want = Tensor::Zeros(TensorShape({3, n}));
      Tensor fresh;
      kernel.into(fresh, a, b);
      ExpectSameBits(fresh, want, ShapeContext(kernel, 3, 0, n) + " (fresh output)");
      Tensor reused = Tensor::Filled(want.shape(), std::numeric_limits<float>::quiet_NaN());
      kernel.into(reused, a, b);
      ExpectSameBits(reused, want, ShapeContext(kernel, 3, 0, n) + " (reused output)");
    }
  }
}
TEST(MatMulKernelTest, EmptyInnerDimensionWritesPositiveZeros) {
  CheckEmptyInnerDimension(MatMulIsa::kVec4);
}
TEST_F(MatMulKernelAvx2Test, EmptyInnerDimensionWritesPositiveZeros) {
  CheckEmptyInnerDimension(MatMulIsa::kAvx2);
}

// The transposed operand of MatMulTransposeB is packed into a per-thread buffer that
// only grows: a small call after a large one, and a large one after that, must each
// read only their own operand.
void CheckPackedOperand(MatMulIsa isa) {
  Rng rng(303);
  const Kernel kernel = Kernels(isa)[2];
  const RowsInner shapes[] = {{4, 64}, {3, 5}, {2, 70}, {1, 1}};
  const int64_t columns[] = {200, 7, 300, 33};
  for (int round = 0; round < 2; ++round) {
    for (size_t s = 0; s < std::size(shapes); ++s) {
      Tensor a = RandomNormal(kernel.a_shape(shapes[s].m, shapes[s].k, columns[s]), rng);
      Tensor b = NonFiniteOperand(kernel.b_shape(shapes[s].m, shapes[s].k, columns[s]), rng,
                                  HardwareNaN());
      CheckAgainstOracle(kernel, a, b, StrFormat("round %d shape %zu", round, s));
    }
  }
}
TEST(MatMulKernelTest, PackedOperandIsExactAcrossShrinkingAndGrowingShapes) {
  CheckPackedOperand(MatMulIsa::kVec4);
}
TEST_F(MatMulKernelAvx2Test, PackedOperandIsExactAcrossShrinkingAndGrowingShapes) {
  CheckPackedOperand(MatMulIsa::kAvx2);
}

// Contraction detector. With a(i, :) = (-1, 1 + 2^-13) and b(:, j) = (1, 1 - 2^-13),
// the product of the second terms, 1 - 2^-26, rounds to 1, so a separate multiply and
// add give -1 + 1 = +0. A fused multiply-add rounds once and gives -2^-26. Random data
// shows a contracting build only when some sum happens to round differently; this one
// always does, for every strip width. The expectation is written out, so a build that
// contracts the oracle too still fails.
void CheckMultiplyAndAddRoundSeparately(MatMulIsa isa) {
  const int64_t m = 3;
  const int64_t k = 2;
  for (const Kernel& kernel : Kernels(isa)) {
    for (int64_t n : kColumnCounts) {
      Tensor a = Tensor::Zeros(kernel.a_shape(m, k, n));
      Tensor b = Tensor::Zeros(kernel.b_shape(m, k, n));
      auto av = a.mutable_floats();
      auto bv = b.mutable_floats();
      for (int64_t p = 0; p < k; ++p) {
        for (int64_t i = 0; i < m; ++i) {
          size_t at = kernel.name == "MatMulTransposeA" ? static_cast<size_t>(p * m + i)
                                                        : static_cast<size_t>(i * k + p);
          av[at] = p == 0 ? -1.0f : 1.0f + 0x1p-13f;
        }
        for (int64_t j = 0; j < n; ++j) {
          size_t at = kernel.name == "MatMulTransposeB" ? static_cast<size_t>(j * k + p)
                                                        : static_cast<size_t>(p * n + j);
          bv[at] = p == 0 ? 1.0f : 1.0f - 0x1p-13f;
        }
      }
      Tensor got;
      kernel.into(got, a, b);
      ExpectSameBits(got, Tensor::Zeros(TensorShape({m, n})), ShapeContext(kernel, m, k, n));
    }
  }
}
TEST(MatMulKernelTest, MultiplyAndAddRoundSeparately) {
  CheckMultiplyAndAddRoundSeparately(MatMulIsa::kVec4);
}
TEST_F(MatMulKernelAvx2Test, MultiplyAndAddRoundSeparately) {
  CheckMultiplyAndAddRoundSeparately(MatMulIsa::kAvx2);
}

}  // namespace
}  // namespace parallax
