// Property tests for the register-tile matmul kernels: MatMulInto,
// MatMulTransposeAInto and MatMulTransposeBInto must reproduce the seed's scalar loops
// (tests/naive_reference.h) BIT-FOR-BIT — compared with memcmp, so -0.0, NaNs and
// denormals count — across strip remainders, tile heights and their tails, degenerate
// m = 1 / k = 1 shapes, and the special values that exercise the zero-skip path (any
// zero in A sends a MatMul or MatMulTransposeA product down the skipping strips).
//
// The kernels run one of three instantiations of their core, chosen per process from
// the CPU (internal::ActiveKernelIsa), so on an AVX-512F machine the public kernels run
// neither the 4-lane nor the 8-lane one. Each check therefore calls every instantiation
// directly: MatMulKernelTest the 4-lane one, MatMulKernelAvx2Test the 8-lane AVX2 one,
// MatMulKernelAvx512Test the 16-lane AVX-512F one, each skipped where the CPU lacks
// its ISA.
//
// One thing is outside any kernel's control: when an add meets two NaNs with different
// bit patterns, which one it returns is left to the compiler's choice of operand order
// (C++ does not specify it). The seed's own MatMulTransposeB loop returns different NaN
// bits at -O0, -O2 and -O3 for the same inputs. So the bit-for-bit tests plant the NaN
// the hardware itself produces (for inf - inf or 0 * inf): every NaN of the computation
// then has one bit pattern and memcmp is exact. NaNs with another payload are covered
// separately, bit for bit everywhere except the payload of a NaN result.
#include <gtest/gtest.h>

#include <array>
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

using internal::KernelIsa;

// The three kernels on instantiation `isa`.
std::vector<Kernel> Kernels(KernelIsa isa) {
  auto on_isa = [isa](void (*kernel)(KernelIsa, Tensor&, const Tensor&, const Tensor&)) {
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

// A row runs full strips of 8 vectors (32 columns with 4 lanes, 64 with 8, 128 with 16)
// while more than 8 vectors and a remainder narrower than one are left, then one strip
// of every column left, in one pass: its whole vectors, then 8- and 4-lane vectors,
// then single columns (with 16 lanes, strips of fewer than 32 columns take 8-lane
// vectors only). So a strip is laid out by its column count alone, and every count from
// 1 to 143 (8 * 16 + 15, the widest strip) runs its own layout on each instantiation
// that reaches it; 144 and up add full strips in front (255 = 128 + 7 * 16 + 8 + 4 + 3
// with 16 lanes, 2000 = 15 * 128 + 5 * 16). Among them are lm's hidden width 48, skew's
// 128, and lm's tenants' 16-28.
constexpr std::array<int64_t, 146> kColumnCounts = [] {
  std::array<int64_t, 146> counts = {};
  for (int64_t n = 1; n <= 144; ++n) {
    counts[static_cast<size_t>(n - 1)] = n;
  }
  counts[144] = 255;
  counts[145] = 2000;
  return counts;
}();

struct RowsInner {
  int64_t m;
  int64_t k;
};
constexpr RowsInner kRowsInner[] = {{1, 1}, {1, 37}, {5, 1}, {6, 29}};

// The lm tenants' narrow products (batch 32, hidden width 24, embedding 16-28): every
// column count they run, on every inner dimension.
constexpr int64_t kTenantColumns[] = {16, 20, 24, 28};
constexpr int64_t kTenantInner[] = {16, 24, 32};
constexpr int64_t kTenantRows = 32;

// The 4-lane instantiation runs on every CPU; these fixtures run the checks on the
// 8-lane AVX2 one and the 16-lane AVX-512F one, where the CPU has their ISA.
class MatMulKernelAvx2Test : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!internal::KernelIsaSupported(KernelIsa::kAvx2)) {
      GTEST_SKIP() << "this CPU has no AVX2";
    }
  }
};
class MatMulKernelAvx512Test : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!internal::KernelIsaSupported(KernelIsa::kAvx512)) {
      GTEST_SKIP() << "this CPU has no AVX-512F";
    }
  }
};

// Calls check(kernel, m, k, n) on every kernel of `isa` for every shape of
// kColumnCounts x kRowsInner and every lm tenant shape.
void ForEachShape(KernelIsa isa,
                  const std::function<void(const Kernel&, int64_t, int64_t, int64_t)>& check) {
  for (const Kernel& kernel : Kernels(isa)) {
    for (int64_t n : kColumnCounts) {
      for (RowsInner shape : kRowsInner) {
        check(kernel, shape.m, shape.k, n);
      }
    }
    for (int64_t n : kTenantColumns) {
      for (int64_t k : kTenantInner) {
        check(kernel, kTenantRows, k, n);
      }
    }
  }
}

void CheckStripRemainders(KernelIsa isa) {
  Rng rng(101);
  ForEachShape(isa, [&](const Kernel& kernel, int64_t m, int64_t k, int64_t n) {
    Tensor a = RandomNormal(kernel.a_shape(m, k, n), rng);
    Tensor b = RandomNormal(kernel.b_shape(m, k, n), rng);
    CheckAgainstOracle(kernel, a, b, ShapeContext(kernel, m, k, n));
  });
}
TEST(MatMulKernelTest, StripRemaindersMatchOracleBitForBit) {
  CheckStripRemainders(KernelIsa::kVec4);
}
TEST_F(MatMulKernelAvx2Test, StripRemaindersMatchOracleBitForBit) {
  CheckStripRemainders(KernelIsa::kAvx2);
}
TEST_F(MatMulKernelAvx512Test, StripRemaindersMatchOracleBitForBit) {
  CheckStripRemainders(KernelIsa::kAvx512);
}

void CheckSpecialValues(KernelIsa isa) {
  Rng rng(202);
  ForEachShape(isa, [&](const Kernel& kernel, int64_t m, int64_t k, int64_t n) {
    Tensor a = SkipOperand(kernel.a_shape(m, k, n), rng);
    Tensor b = NonFiniteOperand(kernel.b_shape(m, k, n), rng, HardwareNaN());
    CheckAgainstOracle(kernel, a, b, ShapeContext(kernel, m, k, n));
  });
}
TEST(MatMulKernelTest, ZerosDenormalsInfinitiesAndNaNsMatchOracleBitForBit) {
  CheckSpecialValues(KernelIsa::kVec4);
}
TEST_F(MatMulKernelAvx2Test, ZerosDenormalsInfinitiesAndNaNsMatchOracleBitForBit) {
  CheckSpecialValues(KernelIsa::kAvx2);
}
TEST_F(MatMulKernelAvx512Test, ZerosDenormalsInfinitiesAndNaNsMatchOracleBitForBit) {
  CheckSpecialValues(KernelIsa::kAvx512);
}

void CheckForeignNaNs(KernelIsa isa) {
  Rng rng(404);
  const float foreign_nan = -HardwareNaN();  // same class, opposite sign bit
  ForEachShape(isa, [&](const Kernel& kernel, int64_t m, int64_t k, int64_t n) {
    Tensor a = SkipOperand(kernel.a_shape(m, k, n), rng);
    Tensor b = NonFiniteOperand(kernel.b_shape(m, k, n), rng, foreign_nan);
    CheckAgainstOracle(kernel, a, b, ShapeContext(kernel, m, k, n), /*any_nan_payload=*/true);
  });
}
TEST(MatMulKernelTest, ForeignNaNPayloadsMatchOracleExceptNaNBits) {
  CheckForeignNaNs(KernelIsa::kVec4);
}
TEST_F(MatMulKernelAvx2Test, ForeignNaNPayloadsMatchOracleExceptNaNBits) {
  CheckForeignNaNs(KernelIsa::kAvx2);
}
TEST_F(MatMulKernelAvx512Test, ForeignNaNPayloadsMatchOracleExceptNaNBits) {
  CheckForeignNaNs(KernelIsa::kAvx512);
}

// A zero A entry facing an infinite B row: the skipping kernels leave the sum finite,
// MatMulTransposeB (which never skipped) turns it into NaN, exactly like the oracle.
void CheckSkippedZeroAgainstInfinity(KernelIsa isa) {
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
  CheckSkippedZeroAgainstInfinity(KernelIsa::kVec4);
}
TEST_F(MatMulKernelAvx2Test, SkippedZeroAgainstInfinityFollowsEachKernelsSeedRule) {
  CheckSkippedZeroAgainstInfinity(KernelIsa::kAvx2);
}
TEST_F(MatMulKernelAvx512Test, SkippedZeroAgainstInfinityFollowsEachKernelsSeedRule) {
  CheckSkippedZeroAgainstInfinity(KernelIsa::kAvx512);
}

// MatMulInto and MatMulTransposeAInto run tiles of several output rows unless A holds a
// zero, and a row count that is not a multiple of a tile's height ends in a shorter
// tile. Every row count 1-9 ends every tile height of up to 8 rows with each possible
// tail, and 31, 33, 64 and 65 do so after many whole tiles. They run on the column
// counts the tiles use (32, 48, 64 and 128 columns, and one past each, which adds single
// columns to the tile), on the lm tenants' column counts, and on B operands with
// infinities and NaNs (A holds no zero, so nothing is skipped and they meet every row).
constexpr int64_t kTileRowCounts[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 33, 64, 65};
constexpr int64_t kTileColumnCounts[] = {32, 33, 48, 49, 64, 65, 128, 129, 16, 20, 24, 28};
constexpr int64_t kTileInner[] = {7, 32};

// A normal operand with no element equal to zero, so the kernels take their tiles.
Tensor NonzeroOperand(const TensorShape& shape, Rng& rng) {
  Tensor t = RandomNormal(shape, rng);
  for (float& v : t.mutable_floats()) {
    if (v == 0.0f) {
      v = 1.0f;
    }
  }
  return t;
}

void CheckTileTails(KernelIsa isa) {
  Rng rng(505);
  for (const Kernel& kernel : Kernels(isa)) {
    for (int64_t m : kTileRowCounts) {
      for (int64_t n : kTileColumnCounts) {
        for (int64_t k : kTileInner) {
          Tensor a = NonzeroOperand(kernel.a_shape(m, k, n), rng);
          Tensor b = RandomNormal(kernel.b_shape(m, k, n), rng);
          CheckAgainstOracle(kernel, a, b, ShapeContext(kernel, m, k, n));
          Tensor special = NonFiniteOperand(kernel.b_shape(m, k, n), rng, HardwareNaN());
          CheckAgainstOracle(kernel, a, special, ShapeContext(kernel, m, k, n) + " non-finite B");
        }
      }
    }
  }
}
TEST(MatMulKernelTest, TileTailsMatchOracleBitForBit) { CheckTileTails(KernelIsa::kVec4); }
TEST_F(MatMulKernelAvx2Test, TileTailsMatchOracleBitForBit) { CheckTileTails(KernelIsa::kAvx2); }
TEST_F(MatMulKernelAvx512Test, TileTailsMatchOracleBitForBit) {
  CheckTileTails(KernelIsa::kAvx512);
}

// One zero in an otherwise nonzero A sends MatMulInto and MatMulTransposeAInto down the
// skipping strips for the whole product. The zero sits at a(0, 0) (A's first stored
// element), at a(m - 1, k - 1) (its last) or, as -0, at a(m / 2, k / 2) in a middle row,
// and B's row p of that zero holds infinities of both signs and NaNs while its other rows
// are finite: a kernel that does not skip turns the zero's output row into NaNs where
// the seed's loop kept it finite, and a zero scan that misses -0 does exactly that.
// MatMulTransposeB, which never skipped, must give NaN there like its oracle.
void CheckLoneZero(KernelIsa isa) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  struct Placement {
    const char* name;
    float zero;
  };
  const Placement placements[] = {{"first +0", 0.0f}, {"last +0", 0.0f}, {"middle -0", -0.0f}};
  const RowsInner shapes[] = {{1, 1}, {3, 4}, {9, 17}, {33, 6}};
  constexpr int64_t kColumns[] = {7, 16, 24, 32, 33, 48, 64, 65, 128, 129};
  Rng rng(606);
  for (const Kernel& kernel : Kernels(isa)) {
    for (RowsInner shape : shapes) {
      const int64_t m = shape.m;
      const int64_t k = shape.k;
      for (int64_t n : kColumns) {
        for (size_t place = 0; place < std::size(placements); ++place) {
          const int64_t i0 = place == 0 ? 0 : place == 1 ? m - 1 : m / 2;
          const int64_t p0 = place == 0 ? 0 : place == 1 ? k - 1 : k / 2;
          Tensor a = NonzeroOperand(kernel.a_shape(m, k, n), rng);
          Tensor b = RandomNormal(kernel.b_shape(m, k, n), rng);
          auto av = a.mutable_floats();
          auto bv = b.mutable_floats();
          av[kernel.name == "MatMulTransposeA" ? static_cast<size_t>(p0 * m + i0)
                                               : static_cast<size_t>(i0 * k + p0)] =
              placements[place].zero;
          for (int64_t j = 0; j < n; ++j) {
            const float special = j % 3 == 0 ? kInf : j % 3 == 1 ? -kInf : HardwareNaN();
            bv[kernel.name == "MatMulTransposeB" ? static_cast<size_t>(j * k + p0)
                                                 : static_cast<size_t>(p0 * n + j)] = special;
          }
          const std::string context =
              ShapeContext(kernel, m, k, n) + " zero " + placements[place].name;
          CheckAgainstOracle(kernel, a, b, context);
          Tensor got;
          kernel.into(got, a, b);
          const float first = got.at(static_cast<size_t>(i0 * n));
          if (kernel.name == "MatMulTransposeB") {
            EXPECT_TRUE(std::isnan(first)) << context;
          } else {
            EXPECT_TRUE(std::isfinite(first)) << context;
          }
        }
      }
    }
  }
}
TEST(MatMulKernelTest, LoneZeroTakesTheSkippingPathBitForBit) { CheckLoneZero(KernelIsa::kVec4); }
TEST_F(MatMulKernelAvx2Test, LoneZeroTakesTheSkippingPathBitForBit) {
  CheckLoneZero(KernelIsa::kAvx2);
}
TEST_F(MatMulKernelAvx512Test, LoneZeroTakesTheSkippingPathBitForBit) {
  CheckLoneZero(KernelIsa::kAvx512);
}

// k = 0: every output element is an empty sum, +0, also over a NaN-poisoned reused
// output. (The seed's MatMulTransposeB loop indexed its empty operands here, so the
// expectation is written out rather than taken from the oracle.)
void CheckEmptyInnerDimension(KernelIsa isa) {
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
  CheckEmptyInnerDimension(KernelIsa::kVec4);
}
TEST_F(MatMulKernelAvx2Test, EmptyInnerDimensionWritesPositiveZeros) {
  CheckEmptyInnerDimension(KernelIsa::kAvx2);
}
TEST_F(MatMulKernelAvx512Test, EmptyInnerDimensionWritesPositiveZeros) {
  CheckEmptyInnerDimension(KernelIsa::kAvx512);
}

// The transposed operand of MatMulTransposeB is packed into a per-thread buffer that
// only grows: a small call after a large one, and a large one after that, must each
// read only their own operand. The packing transposes B [n, k] in 8x8 (AVX2, also on
// AVX-512F) or 4x4 blocks through registers and the rows and columns past the last
// whole block one float at a time, so B also takes every mix of n and k off both block
// grids.
void CheckPackedOperand(KernelIsa isa) {
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
  constexpr int64_t kOffGrid[] = {1, 3, 7, 9, 33, 129};
  for (int64_t n : kOffGrid) {
    for (int64_t k : kOffGrid) {
      Tensor a = RandomNormal(kernel.a_shape(3, k, n), rng);
      Tensor b = NonFiniteOperand(kernel.b_shape(3, k, n), rng, HardwareNaN());
      CheckAgainstOracle(kernel, a, b, ShapeContext(kernel, 3, k, n));
    }
  }
}
TEST(MatMulKernelTest, PackedOperandIsExactAcrossShrinkingAndGrowingShapes) {
  CheckPackedOperand(KernelIsa::kVec4);
}
TEST_F(MatMulKernelAvx2Test, PackedOperandIsExactAcrossShrinkingAndGrowingShapes) {
  CheckPackedOperand(KernelIsa::kAvx2);
}
TEST_F(MatMulKernelAvx512Test, PackedOperandIsExactAcrossShrinkingAndGrowingShapes) {
  CheckPackedOperand(KernelIsa::kAvx512);
}

// Contraction detector. With a(i, :) = (-1, 1 + 2^-13) and b(:, j) = (1, 1 - 2^-13),
// the product of the second terms, 1 - 2^-26, rounds to 1, so a separate multiply and
// add give -1 + 1 = +0. A fused multiply-add rounds once and gives -2^-26. Random data
// shows a contracting build only when some sum happens to round differently; this one
// always does, for every strip width. The expectation is written out, so a build that
// contracts the oracle too still fails.
void CheckMultiplyAndAddRoundSeparately(KernelIsa isa) {
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
  CheckMultiplyAndAddRoundSeparately(KernelIsa::kVec4);
}
TEST_F(MatMulKernelAvx2Test, MultiplyAndAddRoundSeparately) {
  CheckMultiplyAndAddRoundSeparately(KernelIsa::kAvx2);
}
TEST_F(MatMulKernelAvx512Test, MultiplyAndAddRoundSeparately) {
  CheckMultiplyAndAddRoundSeparately(KernelIsa::kAvx512);
}

}  // namespace
}  // namespace parallax
