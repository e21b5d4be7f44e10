#include "src/tensor/tensor_ops.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace parallax {
namespace {

void CheckSameShape(const Tensor& a, const Tensor& b) {
  PX_CHECK(a.shape() == b.shape())
      << "shape mismatch: " << a.shape().ToString() << " vs " << b.shape().ToString();
}

}  // namespace

void AddInPlace(Tensor& out, const Tensor& in) {
  CheckSameShape(out, in);
  auto dst = out.mutable_floats();
  auto src = in.floats();
  for (size_t i = 0; i < dst.size(); ++i) {
    dst[i] += src[i];
  }
}

void AxpyInPlace(Tensor& out, float alpha, const Tensor& in) {
  CheckSameShape(out, in);
  auto dst = out.mutable_floats();
  auto src = in.floats();
  for (size_t i = 0; i < dst.size(); ++i) {
    dst[i] += alpha * src[i];
  }
}

void ScaleInPlace(Tensor& out, float factor) {
  for (float& v : out.mutable_floats()) {
    v *= factor;
  }
}

Tensor Add(const Tensor& a, const Tensor& b) {
  Tensor out = a.Clone();
  AddInPlace(out, b);
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  Tensor out = a.Clone();
  AxpyInPlace(out, -1.0f, b);
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  Tensor out = a.Clone();
  auto dst = out.mutable_floats();
  auto src = b.floats();
  for (size_t i = 0; i < dst.size(); ++i) {
    dst[i] *= src[i];
  }
  return out;
}

Tensor Scale(const Tensor& a, float factor) {
  Tensor out = a.Clone();
  ScaleInPlace(out, factor);
  return out;
}

namespace {

// Prepares `out` as the destination of a dense kernel: reuses its buffer when it is a
// uniquely-owned float tensor of the right shape, otherwise swaps in fresh zeroed
// storage. `zero_fill` is for accumulating kernels; fully-overwriting kernels skip it.
float* PrepareDense(Tensor& out, const TensorShape& shape, bool zero_fill) {
  if (!out.is_float() || !(out.shape() == shape) || !out.UniquelyOwned()) {
    out = Tensor::Zeros(shape);
    return out.mutable_floats().data();
  }
  auto data = out.mutable_floats();
  if (zero_fill) {
    std::fill(data.begin(), data.end(), 0.0f);
  }
  return data.data();
}

// PrepareDense for a [rows, cols] target without constructing a TensorShape on the hot
// path — the steady-state reuse check compares dims directly, so a kernel whose output
// buffer is reusable performs zero allocations (the shape vector included). Every
// caller overwrites the whole target, so a reused buffer is not zero-filled.
float* PrepareDense2D(Tensor& out, int64_t rows, int64_t cols) {
  if (out.is_float() && out.UniquelyOwned() && out.shape().rank() == 2 &&
      out.shape().dim(0) == rows && out.shape().dim(1) == cols) {
    return out.mutable_floats().data();
  }
  out = Tensor::Zeros(TensorShape({rows, cols}));
  return out.mutable_floats().data();
}

// Same, for a 1-D [n] target.
float* PrepareDense1D(Tensor& out, int64_t n, bool zero_fill) {
  if (out.is_float() && out.UniquelyOwned() && out.shape().rank() == 1 &&
      out.shape().dim(0) == n) {
    auto data = out.mutable_floats();
    if (zero_fill) {
      std::fill(data.begin(), data.end(), 0.0f);
    }
    return data.data();
  }
  out = Tensor::Zeros(TensorShape({n}));
  return out.mutable_floats().data();
}

// Same, for `like` with dim 0 replaced by `rows` (the GatherRows/ConcatRows shape):
// like.WithDim0(rows) is only materialized on the cold (allocate) path. A target that
// differs only in its row count keeps its buffer (Tensor::ResizeRows), so a caller
// whose row count varies from call to call allocates only when it exceeds every
// earlier one.
float* PrepareDenseRows(Tensor& out, const TensorShape& like, int64_t rows, bool zero_fill) {
  const std::vector<int64_t>& want = like.dims();
  const std::vector<int64_t>& have = out.shape().dims();
  bool match = out.is_float() && out.UniquelyOwned() && have.size() == want.size() &&
               !have.empty();
  for (size_t d = 1; match && d < want.size(); ++d) {
    match = have[d] == want[d];
  }
  if (match) {
    if (have[0] != rows) {
      out.ResizeRows(rows);
    }
    auto data = out.mutable_floats();
    if (zero_fill) {
      std::fill(data.begin(), data.end(), 0.0f);
    }
    return data.data();
  }
  out = Tensor::Zeros(like.WithDim0(rows));
  return out.mutable_floats().data();
}

// ---- Register-strip matmul core ----
//
// Every matmul kernel computes each output element as the seed's loops did: start at
// +0.0f and add a(i, p) * b(p, j) in ascending p, one rounded multiply then one rounded
// add per term (optionally skipping terms whose a(i, p) compares equal to zero). The
// core keeps that per-element sequence and only changes what runs side by side: a strip
// of an output row's columns stays in registers for the whole p loop, and the
// element-wise vector multiply and add are the same IEEE operations as their scalar
// forms. So the results are bit-identical to the scalar loops, while B is read once per
// strip and C is written once.

// The core is one template on the float vector type V (GCC/Clang vector extension),
// compiled three times: with four lanes at the build's baseline ISA (one SSE register
// on x86-64, scalar code where the target has no vector unit), with eight lanes inside
// AVX2 entry points, and with sixteen inside AVX-512F ones (StripEntries, one entry
// point per strip layout, picked through the kernel-ISA dispatch below). Everything the
// entry points call is always_inline, so each copy is compiled for its entry point's
// ISA.
using Vec4 = float __attribute__((vector_size(16)));
using Vec8 = float __attribute__((vector_size(32)));
using Vec16 = float __attribute__((vector_size(64)));

template <typename V>
constexpr int64_t kLanes = sizeof(V) / sizeof(float);
// Widest strip: 8 accumulators of V, plus the last strip's narrower remainder (at most
// 5 more), leave registers for the broadcast A element and B's vectors: x86-64 has 16
// xmm and ymm registers, and AVX-512 32 zmm.
constexpr int kStripVecs = 8;

// How a strip of `columns` columns splits into accumulators on instantiation V: V
// vectors, then 8- and 4-lane vectors, then single columns, all in one pass over p.
struct StripShape {
  int wide;
  int eights;
  int fours;
  int singles;
};

template <typename V>
constexpr StripShape StripShapeOf(int columns) {
  const int wide = columns / kLanes<V>;
  int rest = columns - wide * kLanes<V>;
  const int eights = kLanes<V> > 8 ? rest / 8 : 0;
  rest -= eights * 8;
  const int fours = kLanes<V> > 4 ? rest / 4 : 0;
  return {wide, eights, fours, rest - fours * 4};
}

// acc[v] += ap * (the lanes of W at bp + v * kLanes<W>), one vector (W = float: one
// column) per accumulator. Vectors move through memcpy, so no function passes one by
// value.
template <typename W, size_t kCount>
[[gnu::always_inline]] inline void AddProducts(std::array<W, kCount>& acc, float ap,
                                               const float* bp) {
#pragma GCC unroll 8
  for (size_t v = 0; v < kCount; ++v) {
    W bv;
    std::memcpy(&bv, bp + v * kLanes<W>, sizeof(bv));
    const W product = ap * bv;
    acc[v] += product;
  }
}

template <typename W, size_t kCount>
[[gnu::always_inline]] inline void StoreAccumulators(float* c, const std::array<W, kCount>& acc) {
#pragma GCC unroll 8
  for (size_t v = 0; v < kCount; ++v) {
    std::memcpy(c + v * kLanes<W>, &acc[v], sizeof(W));
  }
}

// C's columns [0, kColumns) of rows [0, m): for each row i, the sum over p in [0, k) of
// a[i * a_row_step + p * a_col_step] * b[p * n, +kColumns), accumulated in the
// registers of StripShapeOf<V>(kColumns) in one pass over p. C's rows are n floats
// apart.
template <typename V, int kColumns, bool kSkipZeros>
[[gnu::always_inline]] inline void StripRows(float* c, const float* a, int64_t a_row_step,
                                             int64_t a_col_step, const float* b, int64_t m,
                                             int64_t k, int64_t n) {
  constexpr StripShape shape = StripShapeOf<V>(kColumns);
  constexpr int64_t eights_at = shape.wide * kLanes<V>;
  constexpr int64_t fours_at = eights_at + shape.eights * 8;
  constexpr int64_t singles_at = fours_at + shape.fours * 4;
  for (int64_t i = 0; i < m; ++i) {
    const float* ai = a + i * a_row_step;
    std::array<V, shape.wide> wide = {};
    std::array<Vec8, shape.eights> eights = {};
    std::array<Vec4, shape.fours> fours = {};
    std::array<float, shape.singles> singles = {};
    for (int64_t p = 0; p < k; ++p) {
      const float ap = ai[p * a_col_step];
      if (kSkipZeros && ap == 0.0f) {
        continue;
      }
      const float* bp = b + p * n;
      AddProducts(wide, ap, bp);
      AddProducts(eights, ap, bp + eights_at);
      AddProducts(fours, ap, bp + fours_at);
      AddProducts(singles, ap, bp + singles_at);
    }
    float* ci = c + i * n;
    StoreAccumulators(ci, wide);
    StoreAccumulators(ci + eights_at, eights);
    StoreAccumulators(ci + fours_at, fours);
    StoreAccumulators(ci + singles_at, singles);
  }
}

// Runs StripRows for one column count on one instantiation.
using StripFn = void (*)(float* c, const float* a, int64_t a_row_step, int64_t a_col_step,
                         const float* b, int64_t m, int64_t k, int64_t n);

// The widest strip on V: kStripVecs vectors and a remainder narrower than one.
template <typename V>
constexpr int kWidestStrip = kStripVecs * kLanes<V> + kLanes<V> - 1;

// StripEntries<V>::Run<columns, skip> is StripRows for that layout, compiled for V's
// ISA, one function per layout (one entry point inlining all of them made this file
// take 57 s to compile instead of 13 s). Each is compiled without -O3's loop versioning
// for strides, which would copy every strip's loop for a_col_step == 1 and run it no
// faster.
template <typename V>
struct StripEntries;

template <>
struct StripEntries<Vec4> {
  template <int kColumns, bool kSkipZeros>
  [[gnu::optimize("no-version-loops-for-strides")]] static void Run(
      float* c, const float* a, int64_t a_row_step, int64_t a_col_step, const float* b,
      int64_t m, int64_t k, int64_t n) {
    StripRows<Vec4, kColumns, kSkipZeros>(c, a, a_row_step, a_col_step, b, m, k, n);
  }
};

#if defined(__x86_64__)
// The 8-lane instantiation: AVX2 and nothing beyond it. C++ compiles with
// -ffp-contract=fast by default, so on a target with FMA ("fma", -march=native) GCC
// fuses `acc += ap * bv` into one multiply-add with a single rounding, and results
// change. AVX2 has no FMA instruction.
template <>
struct StripEntries<Vec8> {
  template <int kColumns, bool kSkipZeros>
  [[gnu::target("avx2"), gnu::optimize("no-version-loops-for-strides")]] static void Run(
      float* c, const float* a, int64_t a_row_step, int64_t a_col_step, const float* b,
      int64_t m, int64_t k, int64_t n) {
    StripRows<Vec8, kColumns, kSkipZeros>(c, a, a_row_step, a_col_step, b, m, k, n);
  }
};

// The 16-lane instantiation. AVX-512F has fused multiply-add, so contraction is off for
// these functions and the callees they inline: GCC contracts after inlining, under the
// -ffp-contract of the function it compiles.
template <>
struct StripEntries<Vec16> {
  template <int kColumns, bool kSkipZeros>
  [[gnu::target("avx512f"),
    gnu::optimize("fp-contract=off", "no-version-loops-for-strides")]] static void
  Run(float* c, const float* a, int64_t a_row_step, int64_t a_col_step, const float* b,
      int64_t m, int64_t k, int64_t n) {
    StripRows<Vec16, kColumns, kSkipZeros>(c, a, a_row_step, a_col_step, b, m, k, n);
  }
};
#endif

// The instantiation that runs a strip of kColumns columns on V. Each accumulator is one
// add chain bound by the add latency, so a narrow strip runs faster as more, narrower
// chains: only strips that hold two 16-lane vectors take them, and narrower ones run
// the 8-lane strips. (With 16-lane vectors in strips of 16-31 columns, the lm tenants'
// 24-column products ran 1.10-1.14x slower, one 16- and one 8-lane chain against three
// 8-lane ones, and their 28-column one 1.43x.)
template <typename V, int kColumns>
using StripIsa = std::conditional_t<kLanes<V> == 16 && kColumns < 32, Vec8, V>;

// kStrips<V, skip>[w - 1] runs a strip of w columns, for w from 1 to kWidestStrip<V>.
template <typename V, bool kSkipZeros, size_t... kIndex>
constexpr std::array<StripFn, sizeof...(kIndex)> StripsOf(std::index_sequence<kIndex...>) {
  return {&StripEntries<StripIsa<V, static_cast<int>(kIndex) + 1>>::template Run<
      static_cast<int>(kIndex) + 1, kSkipZeros>...};
}
template <typename V, bool kSkipZeros>
constexpr auto kStrips = StripsOf<V, kSkipZeros>(std::make_index_sequence<kWidestStrip<V>>());

// C[m, n] = A x B, where A's element (i, p) is a[i * a_row_step + p * a_col_step] and
// B is row-major [k, n], on the strips of an instantiation with `lanes` lanes. Writes
// every element of C. A row runs strips of kStripVecs vectors until at most the widest
// strip's columns are left, then one strip of all the rest: a pass over p of its own
// for the last few columns would be one more latency-bound chain ([32, 24] x [24, 20]
// took 2.4-3.8 us on AVX2 with a scalar pass for each of its last 4 columns, 1.4-1.7 us
// in one pass).
void StripMatMul(const StripFn* strips, int64_t lanes, float* c, const float* a,
                 int64_t a_row_step, int64_t a_col_step, const float* b, int64_t m, int64_t k,
                 int64_t n) {
  if (k == 0) {
    // Empty sums are +0; returning here also keeps offsets off empty (null) operands.
    std::fill_n(c, m * n, 0.0f);
    return;
  }
  const int64_t full = kStripVecs * lanes;
  const int64_t widest = full + lanes - 1;
  int64_t j = 0;
  for (; n - j > widest; j += full) {
    strips[full - 1](c + j, a, a_row_step, a_col_step, b + j, m, k, n);
  }
  if (j < n) {
    strips[n - j - 1](c + j, a, a_row_step, a_col_step, b + j, m, k, n);
  }
}

// Per-thread scratch for the transposed operand of MatMulTransposeB and for the
// softmax's column-major tile; neither kernel calls the other. It only grows, so once a
// thread has seen its largest operand a kernel call allocates nothing.
float* PackBuffer(size_t floats) {
  thread_local std::vector<float> buffer;
  if (buffer.size() < floats) {
    buffer.resize(floats);
  }
  return buffer.data();
}

// ---- Register-block transposes ----

// Transposes the kLanes<V> x kLanes<V> block at src (rows ld_src floats apart) into dst
// (rows ld_dst floats apart) through registers: rows are loaded as vectors, interleaved
// in log2(kLanes) rounds of shuffles, and stored as columns. Only bits move, so NaN
// payloads and -0 survive.
template <typename V>
[[gnu::always_inline]] inline void TransposeBlock(float* dst, int64_t ld_dst, const float* src,
                                                  int64_t ld_src) {
  constexpr int lanes = kLanes<V>;
  V row[lanes];
#pragma GCC unroll 8
  for (int i = 0; i < lanes; ++i) {
    std::memcpy(&row[i], src + i * ld_src, sizeof(V));
  }
  V column[lanes];
  if constexpr (lanes == 4) {
    const V t0 = __builtin_shufflevector(row[0], row[1], 0, 4, 1, 5);
    const V t1 = __builtin_shufflevector(row[0], row[1], 2, 6, 3, 7);
    const V t2 = __builtin_shufflevector(row[2], row[3], 0, 4, 1, 5);
    const V t3 = __builtin_shufflevector(row[2], row[3], 2, 6, 3, 7);
    column[0] = __builtin_shufflevector(t0, t2, 0, 1, 4, 5);
    column[1] = __builtin_shufflevector(t0, t2, 2, 3, 6, 7);
    column[2] = __builtin_shufflevector(t1, t3, 0, 1, 4, 5);
    column[3] = __builtin_shufflevector(t1, t3, 2, 3, 6, 7);
  } else {
    static_assert(lanes == 8);
    // Interleave row pairs within each 128-bit half, then pairs of pairs, then swap
    // the halves: the unpack, shuffle and permute rounds of an AVX 8x8 transpose.
    V t[8];
#pragma GCC unroll 4
    for (int i = 0; i < 8; i += 2) {
      t[i] = __builtin_shufflevector(row[i], row[i + 1], 0, 8, 1, 9, 4, 12, 5, 13);
      t[i + 1] = __builtin_shufflevector(row[i], row[i + 1], 2, 10, 3, 11, 6, 14, 7, 15);
    }
    V u[8];
#pragma GCC unroll 2
    for (int i = 0; i < 8; i += 4) {
#pragma GCC unroll 2
      for (int h = 0; h < 2; ++h) {
        u[i + 2 * h] = __builtin_shufflevector(t[i + h], t[i + h + 2], 0, 1, 8, 9, 4, 5, 12, 13);
        u[i + 2 * h + 1] =
            __builtin_shufflevector(t[i + h], t[i + h + 2], 2, 3, 10, 11, 6, 7, 14, 15);
      }
    }
#pragma GCC unroll 4
    for (int j = 0; j < 4; ++j) {
      column[j] = __builtin_shufflevector(u[j], u[j + 4], 0, 1, 2, 3, 8, 9, 10, 11);
      column[j + 4] = __builtin_shufflevector(u[j], u[j + 4], 4, 5, 6, 7, 12, 13, 14, 15);
    }
  }
#pragma GCC unroll 8
  for (int j = 0; j < lanes; ++j) {
    std::memcpy(dst + j * ld_dst, &column[j], sizeof(V));
  }
}

// dst[j * ld_dst + i] = src[i * ld_src + j] for i < rows, j < cols: whole blocks through
// TransposeBlock, the rows and columns past the last whole block one float at a time.
template <typename V>
[[gnu::always_inline]] inline void Transpose(float* dst, int64_t ld_dst, const float* src,
                                             int64_t ld_src, int64_t rows, int64_t cols) {
  constexpr int64_t lanes = kLanes<V>;
  int64_t i = 0;
  for (; i + lanes <= rows; i += lanes) {
    int64_t j = 0;
    for (; j + lanes <= cols; j += lanes) {
      TransposeBlock<V>(dst + j * ld_dst + i, ld_dst, src + i * ld_src + j, ld_src);
    }
    for (; j < cols; ++j) {
      for (int64_t l = 0; l < lanes; ++l) {
        dst[j * ld_dst + i + l] = src[(i + l) * ld_src + j];
      }
    }
  }
  for (; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      dst[j * ld_dst + i] = src[i * ld_src + j];
    }
  }
}

void TransposeVec4(float* dst, int64_t ld_dst, const float* src, int64_t ld_src, int64_t rows,
                   int64_t cols) {
  Transpose<Vec4>(dst, ld_dst, src, ld_src, rows, cols);
}

#if defined(__x86_64__)
[[gnu::target("avx2")]] void TransposeAvx2(float* dst, int64_t ld_dst, const float* src,
                                           int64_t ld_src, int64_t rows, int64_t cols) {
  Transpose<Vec8>(dst, ld_dst, src, ld_src, rows, cols);
}
#endif

// ---- tanh ----
//
// The library's tanh is fdlibm's float tanhf (s_tanhf.c), with the branches of its
// expm1f (s_expm1f.c) that tanhf reaches, ported operation for operation: every
// constant has fdlibm's bits and every operation rounds to float in fdlibm's order.
// FdlibmTanhf is that port. The two vector cores below, and their AVX-512F forms after
// TanhKernelAvx2, repeat its operations lane by lane, so they agree with it bit for bit:
// the narrow core for the small inputs of an untrained layer, the wide core for every
// other finite input. Like the matmul core, everything the kernel calls is
// always_inline: the AVX2 entry point then runs the port as VEX code too, where a call
// into SSE code would pay an SSE/AVX transition per element (about 240 ns each on a
// 4-vCPU AVX-512 host).

[[gnu::always_inline]] constexpr float FloatOfBits(uint32_t bits) {
  return __builtin_bit_cast(float, bits);
}
[[gnu::always_inline]] constexpr uint32_t BitsOf(float value) {
  return __builtin_bit_cast(uint32_t, value);
}

constexpr float kLn2Hi = FloatOfBits(0x3f317180);   // 6.9313812256e-01
constexpr float kLn2Lo = FloatOfBits(0x3717f7d1);   // 9.0580006145e-06
constexpr float kInvLn2 = FloatOfBits(0x3fb8aa3b);  // 1.4426950216e+00
// expm1f's scaled polynomial coefficients.
constexpr float kQ1 = FloatOfBits(0xbd088889);  // -3.3333335072e-02
constexpr float kQ2 = FloatOfBits(0x3ad00d01);  // 1.5873016091e-03
constexpr float kQ3 = FloatOfBits(0xb8a670cd);  // -7.9365076090e-05
constexpr float kQ4 = FloatOfBits(0x36867e54);  // 4.0082177293e-06
constexpr float kQ5 = FloatOfBits(0xb457edbb);  // -2.0109921195e-07

// expm1f(y) for the arguments tanhf passes it: y = -2|x| for 2^-55 <= |x| < 1 and
// y = 2|x| for 1 <= |x| < 22. So a positive y is at least 2, and expm1f's branches for
// overflow, non-finite y, y below -27 ln2 and k = 1 are never reached and not ported.
[[gnu::always_inline]] inline float Expm1ForTanh(float y) {
  uint32_t hy = BitsOf(y);
  const bool negative = (hy & 0x80000000u) != 0;
  hy &= 0x7fffffffu;
  // Argument reduction: y = k ln2 + r with |r| <= 0.5 ln2; c corrects r's rounding.
  int k = 0;
  float c = 0.0f;
  if (hy > 0x3eb17218u) {  // |y| > 0.5 ln2
    float hi;
    float lo;
    if (hy < 0x3f851592u) {  // and |y| < 1.5 ln2, so y is negative: k = -1
      hi = y + kLn2Hi;
      lo = -kLn2Lo;
      k = -1;
    } else {
      k = static_cast<int>(kInvLn2 * y + (negative ? -0.5f : 0.5f));
      const float t = static_cast<float>(k);
      hi = y - t * kLn2Hi;
      lo = t * kLn2Lo;
    }
    y = hi - lo;
    c = (hi - y) - lo;
  } else if (hy < 0x33000000u) {  // |y| < 2^-25: expm1(y) rounds to y
    return y;
  }
  // y is now in the primary range.
  const float hfx = 0.5f * y;
  const float hxs = y * hfx;
  const float r1 = 1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - y * t));
  if (k == 0) {
    return y - (y * e - hxs);
  }
  e = y * (e - c) - c;
  e -= hxs;
  if (k == -1) {
    return 0.5f * (y - e) - 0.5f;
  }
  // 2^k (1 + r) - 1: k is added to a float's exponent field.
  const uint32_t k_exponent = static_cast<uint32_t>(k) << 23;
  if (k <= -2 || k > 56) {
    const float u = 1.0f - (e - y);
    return FloatOfBits(BitsOf(u) + k_exponent) - 1.0f;
  }
  float u;
  if (k < 23) {
    t = FloatOfBits(0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    u = t - (e - y);
  } else {
    t = FloatOfBits(static_cast<uint32_t>(0x7f - k) << 23);  // 2^-k
    u = y - (e + t);
    u += 1.0f;
  }
  return FloatOfBits(BitsOf(u) + k_exponent);
}

// fdlibm's tanhf.
[[gnu::always_inline]] inline float FdlibmTanhf(float x) {
  const uint32_t jx = BitsOf(x);
  const uint32_t ix = jx & 0x7fffffffu;
  const bool negative = (jx & 0x80000000u) != 0;
  if (ix >= 0x7f800000u) {  // tanh(+-inf) = +-1, tanh(NaN) = NaN
    return negative ? 1.0f / x - 1.0f : 1.0f / x + 1.0f;
  }
  float z;
  if (ix < 0x41b00000u) {  // |x| < 22
    if (ix == 0) {
      return x;  // +-0
    }
    if (ix < 0x24000000u) {  // |x| < 2^-55
      return x * (1.0f + x);
    }
    if (ix >= 0x3f800000u) {  // |x| >= 1
      const float t = Expm1ForTanh(2.0f * FloatOfBits(ix));
      z = 1.0f - 2.0f / (t + 2.0f);
    } else {
      const float t = Expm1ForTanh(-2.0f * FloatOfBits(ix));
      z = -t / (t + 2.0f);
    }
  } else {
    z = 1.0f - 1.0e-30f;  // |x| >= 22: 1, inexact
  }
  return negative ? -z : z;
}

// The narrow core's inputs: 2^-26 <= |x| < 1.5 ln2 / 2, as bits of |x|. There
// Expm1ForTanh(-2|x|) takes no early return and reduces with k = 0 or k = -1, so the
// narrow core runs about a third of the wide core's operations. Small pre-activations
// take it (a skew replica's stay below 0.25 while it trains); a word LM's grow past 4
// within its first thousand steps, and most of its strips take the wide core.
constexpr int32_t kTanhNarrowMin = 0x32800000;  // 2^-26
constexpr int32_t kTanhNarrowEnd = 0x3f051592;  // 1.5 ln2 / 2, rounded up
// Above this |x| (0.5 ln2 / 2), -2|x| reduces with k = -1.
constexpr int32_t kTanhReduceAbove = 0x3e317218;

// The signed 32-bit lane type of float vector V (what comparing two V yields).
template <typename V>
using LaneBits = decltype(V{} < V{});

// What a strip needs, as bits OR-ed over its lanes.
constexpr int32_t kLaneReduces = 1;    // |x| > 0.5 ln2 / 2: reduces with k = -1
constexpr int32_t kLaneWide = 2;       // outside the narrow core's range
constexpr int32_t kLaneNonFinite = 4;  // infinite or NaN: the port's

// Loads a strip of kLanes<V> floats into x and returns its needs. The lanes are OR-ed
// in vector registers, halving the lanes per step, and only lane 0 leaves them.
template <typename V>
[[gnu::always_inline]] inline int32_t LoadStrip(const float* src, V& x) {
  std::memcpy(&x, src, sizeof(x));
  const LaneBits<V> ix = __builtin_bit_cast(LaneBits<V>, x) & 0x7fffffff;
  const LaneBits<V> needs = (((ix < kTanhNarrowMin) | (ix >= kTanhNarrowEnd)) & kLaneWide) |
                            ((ix > kTanhReduceAbove) & kLaneReduces) |
                            ((ix >= 0x7f800000) & kLaneNonFinite);
  LaneBits<Vec4> any;
  if constexpr (kLanes<V> == 8) {
    any = __builtin_shufflevector(needs, needs, 0, 1, 2, 3) |
          __builtin_shufflevector(needs, needs, 4, 5, 6, 7);
  } else {
    any = needs;
  }
  any |= __builtin_shufflevector(any, any, 2, 3, 0, 1);
  any |= __builtin_shufflevector(any, any, 1, 0, 3, 2);
  return any[0];
}

// dst[0, kLanes<V>) = FdlibmTanhf of the lanes of x, which all lie in the narrow core's
// range: Expm1ForTanh(-2|x|), then the port's finish. With kReduces, some lane reduces
// with k = -1, so every lane runs the k = 0 and the k = -1 sequence and keeps its own.
template <typename V, bool kReduces>
[[gnu::always_inline]] inline void TanhNarrowStrip(float* dst, const V& x) {
  using Bits = LaneBits<V>;
  const Bits sign = __builtin_bit_cast(Bits, x) & static_cast<int32_t>(0x80000000u);
  const Bits ix = __builtin_bit_cast(Bits, x) & 0x7fffffff;
  const V y = -2.0f * __builtin_bit_cast(V, ix);
  const Bits reduce = ix > kTanhReduceAbove;
  V r = y;
  V c = {};
  if constexpr (kReduces) {
    const V hi = y + kLn2Hi;
    const float lo = -kLn2Lo;
    const V reduced = hi - lo;
    c = (hi - reduced) - lo;
    r = reduce ? reduced : y;
  }
  const V hfx = 0.5f * r;
  const V hxs = r * hfx;
  const V r1 = 1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const V t = 3.0f - r1 * hfx;
  const V e = hxs * ((r1 - t) / (6.0f - r * t));
  V expm1 = r - (r * e - hxs);
  if constexpr (kReduces) {
    V e1 = r * (e - c) - c;
    e1 -= hxs;
    const V reduced_result = 0.5f * (r - e1) - 0.5f;
    expm1 = reduce ? reduced_result : expm1;
  }
  // tanh(|x|) = -expm1 / (expm1 + 2) > 0; x's sign bit makes it tanh(x).
  const V z = -expm1 / (expm1 + 2.0f);
  const V tanh = __builtin_bit_cast(V, __builtin_bit_cast(Bits, z) | sign);
  std::memcpy(dst, &tanh, sizeof(tanh));
}

// dst[0, kLanes<V>) = FdlibmTanhf of the lanes of x, which may be any finite floats:
// every lane runs every branch of the port that a finite input reaches, and keeps the
// result of its own, so the cost of a strip does not depend on its values. One
// operation differs in form: the port builds 1 - 2^-k from bits with a shift by k,
// which SSE2 has no per-lane form of; here it is 1.0f - 2^-k, exact for the k < 23
// that use it, so the bits are the same.
template <typename V>
[[gnu::always_inline]] inline void TanhWideStrip(float* dst, const V& x) {
  using Bits = LaneBits<V>;
  const V one = V{} + 1.0f;
  const Bits ix = __builtin_bit_cast(Bits, x) & 0x7fffffff;
  const Bits below_one = ix < 0x3f800000;
  const Bits huge = ix >= 0x41b00000;  // |x| >= 22: tanh is 1 (inexact)
  // Expm1ForTanh's argument: -2|x| below 1, 2|x| from 1 to 22; huge lanes take 2.
  const V ax = huge ? one : __builtin_bit_cast(V, ix);
  const V y = below_one ? -2.0f * ax : 2.0f * ax;
  const Bits hy = __builtin_bit_cast(Bits, y) & 0x7fffffff;
  // Argument reduction: the general k for every lane, replaced by k = -1 where
  // 0.5 ln2 < |y| < 1.5 ln2 and by no reduction (k = 0, c = 0) where |y| <= 0.5 ln2.
  // A negative y is one below 1.
  const V half = below_one ? V{} - 0.5f : V{} + 0.5f;
  Bits k = __builtin_convertvector(kInvLn2 * y + half, Bits);
  const V kf = __builtin_convertvector(k, V);
  V hi = y - kf * kLn2Hi;
  V lo = kf * kLn2Lo;
  const Bits k_minus_one = hy < 0x3f851592;
  hi = k_minus_one ? y + kLn2Hi : hi;
  lo = k_minus_one ? V{} - kLn2Lo : lo;
  k = k_minus_one ? Bits{} - 1 : k;
  const Bits primary = hy <= 0x3eb17218;
  hi = primary ? y : hi;
  lo = primary ? V{} : lo;
  k = primary ? Bits{} : k;
  const V r = hi - lo;
  const V c = (hi - r) - lo;
  const V hfx = 0.5f * r;
  const V hxs = r * hfx;
  const V r1 = 1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const V t = 3.0f - r1 * hfx;
  const V e = hxs * ((r1 - t) / (6.0f - r * t));
  const V at_k_zero = r - (r * e - hxs);
  V e1 = r * (e - c) - c;
  e1 -= hxs;
  const V at_k_minus_one = 0.5f * (r - e1) - 0.5f;
  // Otherwise 2^k (1 + r) - 1, in the port's three forms: u, then k added to u's
  // exponent field, then - 1 for the far k.
  const Bits far = (k <= -2) | (k > 56);
  const V two_to_minus_k = __builtin_bit_cast(V, (0x7f - k) << 23);
  V large = r - (e1 + two_to_minus_k);  // 23 <= k <= 56
  large += 1.0f;
  V u = k < 23 ? (1.0f - two_to_minus_k) - (e1 - r) : large;
  u = far ? 1.0f - (e1 - r) : u;
  V scaled = __builtin_bit_cast(V, __builtin_bit_cast(Bits, u) + (k << 23));
  scaled = far ? scaled - 1.0f : scaled;
  V expm1 = k == -1 ? at_k_minus_one : scaled;
  expm1 = k == 0 ? at_k_zero : expm1;
  expm1 = hy < 0x33000000 ? y : expm1;  // |y| < 2^-25: expm1(y) rounds to y
  // The port's finish: -t / (t + 2) below 1, 1 - 2 / (t + 2) from 1 to 22, then x's sign.
  const V q = (below_one ? -expm1 : V{} + 2.0f) / (expm1 + 2.0f);
  V z = below_one ? q : 1.0f - q;
  z = huge ? V{} + (1.0f - 1.0e-30f) : z;
  const Bits sign = __builtin_bit_cast(Bits, x) & static_cast<int32_t>(0x80000000u);
  V tanh = __builtin_bit_cast(V, __builtin_bit_cast(Bits, z) | sign);
  tanh = ix < 0x24000000 ? x * (1.0f + x) : tanh;  // |x| < 2^-55, +-0 included
  std::memcpy(dst, &tanh, sizeof(tanh));
}

// dst[i] = FdlibmTanhf(src[i]) for i in [0, n), kLanes<V> at a time: a strip whose lanes
// all lie in the narrow core's range runs TanhNarrowStrip, which skips the k = -1
// sequence when no lane needs it; any other finite strip runs TanhWideStrip; a strip
// with an infinite or NaN lane, and the tail, runs the port.
template <typename V>
[[gnu::always_inline]] inline void TanhKernel(float* dst, const float* src, int64_t n) {
  constexpr int64_t lanes = kLanes<V>;
  int64_t i = 0;
  while (i < n) {
    V x;
    const int32_t needs = i + lanes > n ? kLaneNonFinite : LoadStrip(src + i, x);
    if ((needs & kLaneNonFinite) != 0) {
      for (const int64_t end = std::min(i + lanes, n); i < end; ++i) {
        dst[i] = FdlibmTanhf(src[i]);
      }
      continue;
    }
    if ((needs & kLaneWide) != 0) {
      TanhWideStrip(dst + i, x);
    } else if ((needs & kLaneReduces) != 0) {
      TanhNarrowStrip<V, true>(dst + i, x);
    } else {
      TanhNarrowStrip<V, false>(dst + i, x);
    }
    i += lanes;
  }
}

void TanhKernelVec4(float* dst, const float* src, int64_t n) { TanhKernel<Vec4>(dst, src, n); }

#if defined(__x86_64__)
// The 8-lane instantiation, AVX2 and nothing beyond it: under FMA, -ffp-contract=fast
// would fuse the polynomial, `3 - r1 * hfx`, `6 - r * t` and the reduction's
// `y - k * ln2_hi`, as it would the matmuls. CPUs with AVX-512F run the 16-lane cores
// below and this kernel for their tail.
[[gnu::target("avx2")]] void TanhKernelAvx2(float* dst, const float* src, int64_t n) {
  TanhKernel<Vec8>(dst, src, n);
}

// ---- tanh on AVX-512F ----
//
// The template's 16-lane build is slow: AVX-512F tests into mask registers, one bit per
// lane, and a vector of lanes from a mask takes AVX-512DQ, so GCC 12 compiles each
// vector-valued test of the template one lane at a time (vpextrd, cmp and setle per
// lane), and that build ran BM_TanhInto/skew 2.2-2.8x slower than 8 lanes. The cores
// below repeat TanhNarrowStrip and TanhWideStrip statement for statement on Vec16, the
// same arithmetic in the same order, with each test a mask (Test16) and each
// `mask ? a : b` a masked blend (Select16), so they agree with the port bit for bit too.
// (Tests and selects as helper functions under the template would return 8-lane vectors
// from functions compiled for the baseline ISA, which GCC 12 flags under -Wpsabi at the
// end of the translation unit, where no scoped pragma reaches.) They are compiled for
// AVX-512F without contraction, like the 16-lane matmul strips.

using Bits16 = LaneBits<Vec16>;

// The lanes where a kTest b, for the _MM_CMPINT_ predicates LT (<), LE (<=), EQ (==),
// NLT (>=) and NLE (>).
template <int kTest>
[[gnu::target("avx512f"), gnu::always_inline]] inline __mmask16 Test16(const Bits16& a,
                                                                       int32_t b) {
  return _mm512_cmp_epi32_mask(__builtin_bit_cast(__m512i, a),
                               __builtin_bit_cast(__m512i, Bits16{} + b), kTest);
}

// mask ? a : b, lane by lane.
[[gnu::target("avx512f"), gnu::always_inline]] inline Vec16 Select16(__mmask16 mask,
                                                                     const Vec16& a,
                                                                     const Vec16& b) {
  return _mm512_mask_blend_ps(mask, b, a);
}
[[gnu::target("avx512f"), gnu::always_inline]] inline Bits16 Select16(__mmask16 mask,
                                                                      const Bits16& a,
                                                                      const Bits16& b) {
  return __builtin_bit_cast(Bits16, _mm512_mask_blend_epi32(mask, __builtin_bit_cast(__m512i, b),
                                                            __builtin_bit_cast(__m512i, a)));
}

// LoadStrip on 16 lanes: each need is whether its mask has a lane.
[[gnu::target("avx512f"), gnu::always_inline]] inline int32_t LoadStrip16(const float* src,
                                                                          Vec16& x) {
  std::memcpy(&x, src, sizeof(x));
  const Bits16 ix = __builtin_bit_cast(Bits16, x) & 0x7fffffff;
  const __mmask16 wide =
      Test16<_MM_CMPINT_LT>(ix, kTanhNarrowMin) | Test16<_MM_CMPINT_NLT>(ix, kTanhNarrowEnd);
  const __mmask16 reduces = Test16<_MM_CMPINT_NLE>(ix, kTanhReduceAbove);
  const __mmask16 non_finite = Test16<_MM_CMPINT_NLT>(ix, 0x7f800000);
  return (wide != 0 ? kLaneWide : 0) | (reduces != 0 ? kLaneReduces : 0) |
         (non_finite != 0 ? kLaneNonFinite : 0);
}

// TanhNarrowStrip<Vec16, kReduces>.
template <bool kReduces>
[[gnu::target("avx512f"), gnu::always_inline]] inline void TanhNarrowStrip16(float* dst,
                                                                             const Vec16& x) {
  const Bits16 sign = __builtin_bit_cast(Bits16, x) & static_cast<int32_t>(0x80000000u);
  const Bits16 ix = __builtin_bit_cast(Bits16, x) & 0x7fffffff;
  const Vec16 y = -2.0f * __builtin_bit_cast(Vec16, ix);
  const __mmask16 reduce = Test16<_MM_CMPINT_NLE>(ix, kTanhReduceAbove);
  Vec16 r = y;
  Vec16 c = {};
  if constexpr (kReduces) {
    const Vec16 hi = y + kLn2Hi;
    const float lo = -kLn2Lo;
    const Vec16 reduced = hi - lo;
    c = (hi - reduced) - lo;
    r = Select16(reduce, reduced, y);
  }
  const Vec16 hfx = 0.5f * r;
  const Vec16 hxs = r * hfx;
  const Vec16 r1 = 1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const Vec16 t = 3.0f - r1 * hfx;
  const Vec16 e = hxs * ((r1 - t) / (6.0f - r * t));
  Vec16 expm1 = r - (r * e - hxs);
  if constexpr (kReduces) {
    Vec16 e1 = r * (e - c) - c;
    e1 -= hxs;
    const Vec16 reduced_result = 0.5f * (r - e1) - 0.5f;
    expm1 = Select16(reduce, reduced_result, expm1);
  }
  const Vec16 z = -expm1 / (expm1 + 2.0f);
  const Vec16 tanh = __builtin_bit_cast(Vec16, __builtin_bit_cast(Bits16, z) | sign);
  std::memcpy(dst, &tanh, sizeof(tanh));
}

// TanhWideStrip<Vec16>.
[[gnu::target("avx512f"), gnu::always_inline]] inline void TanhWideStrip16(float* dst,
                                                                           const Vec16& x) {
  const Vec16 one = Vec16{} + 1.0f;
  const Bits16 ix = __builtin_bit_cast(Bits16, x) & 0x7fffffff;
  const __mmask16 below_one = Test16<_MM_CMPINT_LT>(ix, 0x3f800000);
  const __mmask16 huge = Test16<_MM_CMPINT_NLT>(ix, 0x41b00000);
  const Vec16 ax = Select16(huge, one, __builtin_bit_cast(Vec16, ix));
  const Vec16 y = Select16(below_one, -2.0f * ax, 2.0f * ax);
  const Bits16 hy = __builtin_bit_cast(Bits16, y) & 0x7fffffff;
  const Vec16 half = Select16(below_one, Vec16{} - 0.5f, Vec16{} + 0.5f);
  Bits16 k = __builtin_convertvector(kInvLn2 * y + half, Bits16);
  const Vec16 kf = __builtin_convertvector(k, Vec16);
  Vec16 hi = y - kf * kLn2Hi;
  Vec16 lo = kf * kLn2Lo;
  const __mmask16 k_minus_one = Test16<_MM_CMPINT_LT>(hy, 0x3f851592);
  hi = Select16(k_minus_one, y + kLn2Hi, hi);
  lo = Select16(k_minus_one, Vec16{} - kLn2Lo, lo);
  k = Select16(k_minus_one, Bits16{} - 1, k);
  const __mmask16 primary = Test16<_MM_CMPINT_LE>(hy, 0x3eb17218);
  hi = Select16(primary, y, hi);
  lo = Select16(primary, Vec16{}, lo);
  k = Select16(primary, Bits16{}, k);
  const Vec16 r = hi - lo;
  const Vec16 c = (hi - r) - lo;
  const Vec16 hfx = 0.5f * r;
  const Vec16 hxs = r * hfx;
  const Vec16 r1 = 1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const Vec16 t = 3.0f - r1 * hfx;
  const Vec16 e = hxs * ((r1 - t) / (6.0f - r * t));
  const Vec16 at_k_zero = r - (r * e - hxs);
  Vec16 e1 = r * (e - c) - c;
  e1 -= hxs;
  const Vec16 at_k_minus_one = 0.5f * (r - e1) - 0.5f;
  const __mmask16 far = Test16<_MM_CMPINT_LE>(k, -2) | Test16<_MM_CMPINT_NLE>(k, 56);
  const Vec16 two_to_minus_k = __builtin_bit_cast(Vec16, (0x7f - k) << 23);
  Vec16 large = r - (e1 + two_to_minus_k);
  large += 1.0f;
  Vec16 u = Select16(Test16<_MM_CMPINT_LT>(k, 23), (1.0f - two_to_minus_k) - (e1 - r), large);
  u = Select16(far, 1.0f - (e1 - r), u);
  Vec16 scaled = __builtin_bit_cast(Vec16, __builtin_bit_cast(Bits16, u) + (k << 23));
  scaled = Select16(far, scaled - 1.0f, scaled);
  Vec16 expm1 = Select16(Test16<_MM_CMPINT_EQ>(k, -1), at_k_minus_one, scaled);
  expm1 = Select16(Test16<_MM_CMPINT_EQ>(k, 0), at_k_zero, expm1);
  expm1 = Select16(Test16<_MM_CMPINT_LT>(hy, 0x33000000), y, expm1);
  const Vec16 q = Select16(below_one, -expm1, Vec16{} + 2.0f) / (expm1 + 2.0f);
  Vec16 z = Select16(below_one, q, 1.0f - q);
  z = Select16(huge, Vec16{} + (1.0f - 1.0e-30f), z);
  const Bits16 sign = __builtin_bit_cast(Bits16, x) & static_cast<int32_t>(0x80000000u);
  Vec16 tanh = __builtin_bit_cast(Vec16, __builtin_bit_cast(Bits16, z) | sign);
  tanh = Select16(Test16<_MM_CMPINT_LT>(ix, 0x24000000), x * (1.0f + x), tanh);
  std::memcpy(dst, &tanh, sizeof(tanh));
}

// TanhKernel on 16 lanes: each whole strip takes the core its masks pick, or the port
// when a lane is infinite or NaN, and the last n % 16 elements run the 8-lane kernel.
[[gnu::target("avx512f"), gnu::optimize("fp-contract=off")]] void TanhKernelAvx512(
    float* dst, const float* src, int64_t n) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    Vec16 x;
    const int32_t needs = LoadStrip16(src + i, x);
    if ((needs & kLaneNonFinite) != 0) {
      for (int64_t l = i; l < i + 16; ++l) {
        dst[l] = FdlibmTanhf(src[l]);
      }
    } else if ((needs & kLaneWide) != 0) {
      TanhWideStrip16(dst + i, x);
    } else if ((needs & kLaneReduces) != 0) {
      TanhNarrowStrip16<true>(dst + i, x);
    } else {
      TanhNarrowStrip16<false>(dst + i, x);
    }
  }
  TanhKernelAvx2(dst + i, src + i, n - i);
}
#endif

// ---- exp ----
//
// The library's exp is glibc 2.36's float expf (sysdeps/ieee754/flt-32/e_expf.c),
// ported: x = (k + r) ln2 / 32 with integer k and |r| <= 1/2, then
// exp(x) = 2^(k/32) * 2^(r/32), the first factor from a 32-entry table and the second
// from a cubic in r, all in double precision and rounded to float once. x86-64 glibc
// runs a variant built for FMA on CPUs that have it, where the reduction takes
// k = round(x * 32/ln2) and r = x * 32/ln2 - k each rounded once from the exact product.
// The port forms that product without FMA, from 32/ln2 split in two parts whose
// products with a float are exact (see ExpMainPath). It equals that variant on every
// float; glibc's SSE2 variant, which rounds the product first, differs on a few
// (0x4202422f and 0xc27c65d9 among them). Like the tanh, everything is always_inline,
// and the softmax kernel runs it lane by lane: 8 float lanes in two halves of 4 doubles
// on AVX2, in one register of 8 doubles on AVX-512F.

// 2^(i/32) for i in [0, 32), as bits less i << 47, so that adding k << 47 for a k with
// k % 32 = i gives the bits of 2^(k/32): glibc's __exp2f_data.tab. On a cache line, so
// each quarter is one aligned 8-double register.
alignas(64) constexpr uint64_t kExp2Table[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
// glibc's 32/ln2 (0x1.71547652b82fep+5) as a 29-bit and a 21-bit part: each part times
// a float's 24-bit significand fits in a double's 53 bits, so both products are exact.
constexpr double kInvLn2NHi = 0x1.7154765p+5;
constexpr double kInvLn2NLo = 0x1.5c17fp-26;
static_assert(kInvLn2NHi + kInvLn2NLo == 0x1.71547652b82fep+5);
// Adding 1.5 * 2^52 rounds a double below 2^51 in magnitude to an integer, ties to even.
constexpr double kExpShift = 0x1.8p+52;
// The cubic's coefficients, scaled for r in units of 1/32.
constexpr double kExpC0 = 0x1.c6af84b912394p-20;
constexpr double kExpC1 = 0x1.ebfce50fac4f3p-13;
constexpr double kExpC2 = 0x1.62e42ff0c52d6p-6;
// exp overflows above log(2^128) and underflows to +0 below log(2^-150).
constexpr float kExpOverflowAbove = 0x1.62e42ep6f;
constexpr float kExpUnderflowBelow = -0x1.9fe368p6f;

// The float and 64-bit lane vectors that go with a double vector D; D = double is the
// scalar port.
template <typename D>
struct ExpTypes {
  using Float = float;
  using Bits = uint64_t;
};
using Vec2 = float __attribute__((vector_size(8)));
using Vec2d = double __attribute__((vector_size(16)));
using Vec4d = double __attribute__((vector_size(32)));
template <>
struct ExpTypes<Vec2d> {
  using Float = Vec2;
  using Bits = uint64_t __attribute__((vector_size(16)));
};
template <>
struct ExpTypes<Vec4d> {
  using Float = Vec4;
  using Bits = uint64_t __attribute__((vector_size(32)));
};
// (Eight double lanes: the Gaussian core, and the exp on AVX-512F.)
using Vec8d = double __attribute__((vector_size(64)));
template <>
struct ExpTypes<Vec8d> {
  using Float = Vec8;
  using Bits = uint64_t __attribute__((vector_size(64)));
};
// The double vector holding half the lanes of float vector V, and the float vector of
// half its lanes.
template <typename V>
using HalfDoubles = std::conditional_t<kLanes<V> == 4, Vec2d, Vec4d>;
template <typename V>
using Halves = typename ExpTypes<HalfDoubles<V>>::Float;

// low, high = the first and the second half of v's lanes, widened to double. (GCC 12
// converts a whole half with one instruction when it is built lane by lane, and with
// several through __builtin_convertvector.)
template <typename V>
[[gnu::always_inline]] inline void WidenHalves(const V& v, HalfDoubles<V>& low,
                                               HalfDoubles<V>& high) {
  if constexpr (kLanes<V> == 4) {
    low = HalfDoubles<V>{v[0], v[1]};
    high = HalfDoubles<V>{v[2], v[3]};
  } else {
    low = HalfDoubles<V>{v[0], v[1], v[2], v[3]};
    high = HalfDoubles<V>{v[4], v[5], v[6], v[7]};
  }
}
// v = the float halves low and high, joined.
template <typename V>
[[gnu::always_inline]] inline void JoinHalves(const Halves<V>& low, const Halves<V>& high,
                                              V& v) {
  if constexpr (kLanes<V> == 4) {
    v = __builtin_shufflevector(low, high, 0, 1, 2, 3);
  } else {
    v = __builtin_shufflevector(low, high, 0, 1, 2, 3, 4, 5, 6, 7);
  }
}

// entries = kExp2Table at index i, or at each lane's index. Eight lanes read the table
// from registers: AVX-512F's two-table permute (vpermt2q) picks lane by lane from 16
// entries by index bits 0-3, once from each half of the table, and a blend on bit 4
// keeps the right half's, where fewer lanes load each entry. The permutes are GCC's
// builtins: this template is compiled for the baseline ISA before an AVX-512F entry
// point inlines it, so it cannot inline <immintrin.h>'s target("avx512f") wrappers, and
// GCC's note that their 8-lane results would change an ABI there (-Wpsabi) does not
// apply to values that never cross a call.
template <typename Bits>
[[gnu::always_inline]] inline void Exp2TableAt(const Bits& i, Bits& entries) {
  if constexpr (std::is_same_v<Bits, uint64_t>) {
    entries = kExp2Table[i];
  } else if constexpr (sizeof(Bits) == 64) {
#if defined(__x86_64__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"
    using Quads = long long __attribute__((vector_size(64)));
    Quads quarters[4];
    std::memcpy(quarters, kExp2Table, sizeof(quarters));
    const Quads index = __builtin_bit_cast(Quads, i);
    const Quads low = __builtin_ia32_vpermt2varq512_mask(index, quarters[0], quarters[1], 0xff);
    const Quads high = __builtin_ia32_vpermt2varq512_mask(index, quarters[2], quarters[3], 0xff);
    const unsigned char upper = __builtin_ia32_ptestmq512(index, Quads{} + 16, 0xff);
    entries = __builtin_bit_cast(Bits, __builtin_ia32_blendmq_512_mask(low, high, upper));
#pragma GCC diagnostic pop
#endif
  } else {
#pragma GCC unroll 4
    for (size_t l = 0; l < sizeof(Bits) / sizeof(uint64_t); ++l) {
      entries[l] = kExp2Table[i[l]];
    }
  }
}

// expf's main path, for |x| < 88 and for every finite x between the overflow and
// underflow thresholds, on x converted to double (a scalar or every lane of a vector).
// With z = x * 32/ln2 exactly, the FMA variant rounds k = round(z) and r = z - k once
// each from the exact product. Here z = hi + lo, both exact, k = round(hi), and hi - k
// is exact, so r = (hi - k) + lo is z - k rounded once. round(hi) differs from round(z)
// only where lo carries hi - round(hi) past +-1/2 (z itself is never a half-integer):
// on 44 floats, 22 each way. There k and r are each one off the FMA variant's, and the
// result is the same bits (checked on every float; ExpPortTest pins three of them). The
// result returns through a reference: 8 lanes of it are an AVX register, which the
// template, compiled for the baseline ISA before an entry point inlines it, may not
// return.
template <typename D>
[[gnu::always_inline]] inline void ExpMainPath(const D& xd, typename ExpTypes<D>::Float& y) {
  using Bits = typename ExpTypes<D>::Bits;
  const D hi = kInvLn2NHi * xd;
  const D kd = hi + kExpShift;  // kExpShift + k
  const D r = (hi - (kd - kExpShift)) + kInvLn2NLo * xd;
  // s = 2^(k/32): k's low bits index the table, the rest go to the exponent field.
  const Bits ki = __builtin_bit_cast(Bits, kd);
  Bits entries;
  Exp2TableAt(ki & 31, entries);
  const D s = __builtin_bit_cast(D, entries + (ki << 47));
  const D z = kExpC0 * r + kExpC1;
  const D r2 = r * r;
  D p = kExpC2 * r + 1.0;
  p = z * r2 + p;
  p = p * s;
  if constexpr (std::is_same_v<D, double>) {
    y = static_cast<float>(p);
  } else {
    y = __builtin_convertvector(p, typename ExpTypes<D>::Float);
  }
}

// glibc's expf.
[[gnu::always_inline]] inline float GlibcExpf(float x) {
  const uint32_t abstop = (BitsOf(x) >> 20) & 0x7ff;
  if (abstop >= 0x42b) {  // |x| >= 88, inf or NaN
    if (BitsOf(x) == 0xff800000u) {
      return 0.0f;  // exp(-inf)
    }
    if (abstop >= 0x7f8) {
      return x + x;  // +inf, NaN
    }
    if (x > kExpOverflowAbove) {
      return std::numeric_limits<float>::infinity();
    }
    if (x < kExpUnderflowBelow) {
      return 0.0f;
    }
  }
  float y;
  ExpMainPath(static_cast<double>(x), y);
  return y;
}

// y = GlibcExpf of every lane of x: the main path in double precision, on each half of
// the lanes (D = HalfDoubles<V>) or on all of them at once (D of kLanes<V> doubles), the
// same operations as the scalar port, so the same bits, then glibc's special cases as
// per-lane selects.
template <typename V, typename D = HalfDoubles<V>>
[[gnu::always_inline]] inline void ExpLanes(const V& x, V& y) {
  if constexpr (sizeof(D) == 2 * sizeof(V)) {
    static_assert(kLanes<V> == 8);
    ExpMainPath(D{x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]}, y);
  } else {
    HalfDoubles<V> low;
    HalfDoubles<V> high;
    WidenHalves(x, low, high);
    Halves<V> low_y;
    Halves<V> high_y;
    ExpMainPath(low, low_y);
    ExpMainPath(high, high_y);
    JoinHalves(low_y, high_y, y);
  }
  y = x > kExpOverflowAbove ? std::numeric_limits<float>::infinity() : y;  // +inf included
  y = x < kExpUnderflowBelow ? 0.0f : y;                                   // -inf included
  y = x != x ? x + x : y;                                                  // NaN
}

// ---- Softmax ----
//
// Each row is the seed's sequence: its max folded left to right as std::max does, then
// exp(x - max) of every element with the exps summed left to right in float, then every
// exp divided by the sum. The kernel computes kLanes<V> rows side by side, one per vector
// lane: it transposes them into a column-major tile, so column c of the rows is one
// vector, and runs the three passes down the tile's columns with lane-wise operations.
// Every lane thus performs its own row's operations in its row's order, and the results
// are bit-identical to the scalar loop, which still runs the rows past the last whole
// group.

// The seed's loop for one row of `cols` floats, cols >= 1, on the ported exp.
[[gnu::always_inline]] inline void SoftmaxRow(float* dst, const float* src, int64_t cols) {
  float max_val = src[0];
  for (int64_t c = 1; c < cols; ++c) {
    max_val = std::max(max_val, src[c]);
  }
  float sum = 0.0f;
  for (int64_t c = 0; c < cols; ++c) {
    dst[c] = GlibcExpf(src[c] - max_val);
    sum += dst[c];
  }
  for (int64_t c = 0; c < cols; ++c) {
    dst[c] /= sum;
  }
}

// dst = row-wise softmax of src, both [rows, cols] with cols >= 1, with the exp on
// ExpLanes<V, D>. `tile` holds kLanes<V> * cols floats.
template <typename V, typename D = HalfDoubles<V>>
[[gnu::always_inline]] inline void SoftmaxKernel(float* dst, const float* src, int64_t rows,
                                                 int64_t cols, float* tile) {
  constexpr int64_t lanes = kLanes<V>;
  int64_t r = 0;
  for (; r + lanes <= rows; r += lanes) {
    // tile[c * lanes + l] = src[(r + l) * cols + c]
    Transpose<V>(tile, lanes, src + r * cols, cols, lanes, cols);
    V max_val;
    std::memcpy(&max_val, tile, sizeof(V));
    for (int64_t c = 1; c < cols; ++c) {
      V v;
      std::memcpy(&v, tile + c * lanes, sizeof(V));
      max_val = max_val < v ? v : max_val;  // std::max(max_val, v)
    }
    V sum = {};
    for (int64_t c = 0; c < cols; ++c) {
      V v;
      std::memcpy(&v, tile + c * lanes, sizeof(V));
      V e;
      ExpLanes<V, D>(v - max_val, e);
      std::memcpy(tile + c * lanes, &e, sizeof(V));
      sum += e;
    }
    for (int64_t c = 0; c < cols; ++c) {
      V v;
      std::memcpy(&v, tile + c * lanes, sizeof(V));
      v /= sum;
      std::memcpy(tile + c * lanes, &v, sizeof(V));
    }
    Transpose<V>(dst + r * cols, cols, tile, lanes, cols, lanes);
  }
  for (; r < rows; ++r) {
    SoftmaxRow(dst + r * cols, src + r * cols, cols);
  }
}

// dst[i] = GlibcExpf(src[i]) for i in [0, n): ExpLanes<V, D> kLanes<V> at a time, the
// tail on the scalar port.
template <typename V, typename D = HalfDoubles<V>>
[[gnu::always_inline]] inline void ExpKernel(float* dst, const float* src, int64_t n) {
  int64_t i = 0;
  for (; i + kLanes<V> <= n; i += kLanes<V>) {
    V x;
    std::memcpy(&x, src + i, sizeof(V));
    V e;
    ExpLanes<V, D>(x, e);
    std::memcpy(dst + i, &e, sizeof(V));
  }
  for (; i < n; ++i) {
    dst[i] = GlibcExpf(src[i]);
  }
}

void SoftmaxKernelVec4(float* dst, const float* src, int64_t rows, int64_t cols, float* tile) {
  SoftmaxKernel<Vec4>(dst, src, rows, cols, tile);
}
void ExpKernelVec4(float* dst, const float* src, int64_t n) { ExpKernel<Vec4>(dst, src, n); }

#if defined(__x86_64__)
// The 8-lane instantiations, AVX2 and nothing beyond it: under FMA, -ffp-contract=fast
// would fuse the exp's products with the additions that follow them, as it would the
// matmuls.
[[gnu::target("avx2")]] void SoftmaxKernelAvx2(float* dst, const float* src, int64_t rows,
                                               int64_t cols, float* tile) {
  SoftmaxKernel<Vec8>(dst, src, rows, cols, tile);
}
[[gnu::target("avx2")]] void ExpKernelAvx2(float* dst, const float* src, int64_t n) {
  ExpKernel<Vec8>(dst, src, n);
}

// The same 8 rows or lanes with the exp on one register of 8 doubles, contraction off.
[[gnu::target("avx512f"), gnu::optimize("fp-contract=off")]] void SoftmaxKernelAvx512(
    float* dst, const float* src, int64_t rows, int64_t cols, float* tile) {
  SoftmaxKernel<Vec8, Vec8d>(dst, src, rows, cols, tile);
}
[[gnu::target("avx512f"), gnu::optimize("fp-contract=off")]] void ExpKernelAvx512(
    float* dst, const float* src, int64_t n) {
  ExpKernel<Vec8, Vec8d>(dst, src, n);
}
#endif

// ---- Gaussian draws ----
//
// RandomNormal's values are the seed's: float(BoxMuller(u1, u2)) * stddev for each pair
// of uniforms drawn from the Rng, u1 then u2. BoxMuller (rng.h) calls libm's double log
// and cos, whose last bits this library does not reproduce. But a value depends only on
// BoxMuller's double rounded to float, which drops 29 of its bits. So the kernel
// computes p = sqrt(-2 log u1) * cos(2 pi u2) on double vector lanes with its own log and
// cos, within 2^-48 of the exact value relative to it (the bound below), and keeps
// float(p) only where p - eps |p| and p + eps |p| round to the same float, with eps =
// 2^-40 (internal::kGaussianGuard). libm's log and cos are within 1 ulp, which puts its
// double within 5 * 2^-53 of the exact value, so inside that interval; rounding to
// nearest is monotonic, so it rounds to the same float. A lane whose interval holds the
// midpoint between two floats (2.2 in 10^5 of them), or whose p is 0, infinite or NaN,
// recomputes its value with BoxMuller from the same pair. So every value equals the seed
// loop's on any libm whose log and cos err by less than 1 ulp, glibc's variants with and
// without FMA both, and the Rng is left where the seed loop leaves it.
//
// The core's error, per step, in units of u = 2^-53 relative to the step's exact value:
// - log: fdlibm's e_log.c, without its branches. x = 2^k (1 + f) with sqrt(2)/2 <=
//   1 + f < sqrt(2), f exact, and log x = k ln2 + f - f^2/2 + s (f^2/2 + R), where
//   s = f / (2 + f) and R, a polynomial in s^2, is within 2^-58.45 of its function. The
//   terms after f are under 0.21 |f|, and under 0.6 where k != 0 and |log x| >= 0.34:
//   at most 4u.
// - the reduction r = t - k pi/2, k = round(t 2/pi) in 0..4, with pi/2 in fdlibm's four
//   parts (pio2_1, pio2_2, pio2_3, pio2_3t, 7.4e-49 short of pi/2): k times a part is
//   exact and so is the first difference (t >= pi/4 where k >= 1); each later one is
//   exact or rounds a value within 4 * 2.1e-21 of r, for at most 3u. No double t in
//   [0, 2 pi) lies closer to a multiple of pi/2 than 6.1e-17, so |r| never sinks to the
//   size of what the parts leave out.
// - sin r and cos r (fdlibm's k_sin.c and k_cos.c on r alone, without k_cos.c's split
//   for |r| >= 0.3): 2u each, plus the reduction's error, which they carry at most
//   1 : 1 (sin) and tan(pi/4) pi/4 : 1 (cos): at most 5u.
// - the square root halves log's error and adds u; the product adds u.
// In all at most 4u/2 + u + 5u + u = 9u < 2^-49.8, and the guard's 2^-40 is 2^8 above
// the stated 2^-48. (random_normal_test measures the core against long double, and the
// guard's fallback rate.)
//
// The core is one template on the exp core's double vectors, compiled three times: with
// two lanes at the build's baseline ISA, with four inside an AVX2 entry point, and with
// eight inside an AVX-512F one compiled without contraction. So no product fuses with the
// addition after it: the guard would cover a fused core too, but the library holds no
// fused multiply-add at all (CI counts them).

constexpr double DoubleOfBits(uint64_t bits) { return __builtin_bit_cast(double, bits); }

// fdlibm's constants, by their bits.
constexpr double kLogLn2Hi = DoubleOfBits(0x3fe62e42fee00000);  // 6.93147180369123816490e-01
constexpr double kLogLn2Lo = DoubleOfBits(0x3dea39ef35793c76);  // 1.90821492927058770002e-10
constexpr double kLg1 = DoubleOfBits(0x3fe5555555555593);  // 6.666666666666735130e-01
constexpr double kLg2 = DoubleOfBits(0x3fd999999997fa04);  // 3.999999999940941908e-01
constexpr double kLg3 = DoubleOfBits(0x3fd2492494229359);  // 2.857142874366239149e-01
constexpr double kLg4 = DoubleOfBits(0x3fcc71c51d8e78af);  // 2.222219843214978396e-01
constexpr double kLg5 = DoubleOfBits(0x3fc7466496cb03de);  // 1.818357216161805012e-01
constexpr double kLg6 = DoubleOfBits(0x3fc39a09d078c69f);  // 1.531383769920937332e-01
constexpr double kLg7 = DoubleOfBits(0x3fc2f112df3e5244);  // 1.479819860511658591e-01
constexpr double kInvPio2 = DoubleOfBits(0x3fe45f306dc9c883);  // 6.36619772367581382433e-01
constexpr double kPio2Part1 = DoubleOfBits(0x3ff921fb54400000);  // 1.57079632673412561417e+00
constexpr double kPio2Part2 = DoubleOfBits(0x3dd0b4611a600000);  // 6.07710050630396597660e-11
constexpr double kPio2Part3 = DoubleOfBits(0x3ba3198a2e000000);  // 2.02226624871116645580e-21
constexpr double kPio2Part4 = DoubleOfBits(0x397b839a252049c1);  // 8.47842766036889956997e-32
constexpr double kS1 = DoubleOfBits(0xbfc5555555555549);  // -1.66666666666666324348e-01
constexpr double kS2 = DoubleOfBits(0x3f8111111110f8a6);  // 8.33333333332248946124e-03
constexpr double kS3 = DoubleOfBits(0xbf2a01a019c161d5);  // -1.98412698298579493134e-04
constexpr double kS4 = DoubleOfBits(0x3ec71de357b1fe7d);  // 2.75573137070700676789e-06
constexpr double kS5 = DoubleOfBits(0xbe5ae5e68a2b9ceb);  // -2.50507602534068634195e-08
constexpr double kS6 = DoubleOfBits(0x3de5d93a5acfd57c);  // 1.58969099521155010221e-10
constexpr double kC1 = DoubleOfBits(0x3fa555555555554c);  // 4.16666666666666019037e-02
constexpr double kC2 = DoubleOfBits(0xbf56c16c16c15177);  // -1.38888888888741095749e-03
constexpr double kC3 = DoubleOfBits(0x3efa01a019cb1590);  // 2.48015872894767294178e-05
constexpr double kC4 = DoubleOfBits(0xbe927e4f809c52ad);  // -2.75573143513906633035e-07
constexpr double kC5 = DoubleOfBits(0x3e21ee9ebdb4b1c4);  // 2.08757232129817482790e-09
constexpr double kC6 = DoubleOfBits(0xbda8fae9be8838d4);  // -1.13596475577881948265e-11

// log = log x for every lane of a double vector D, each lane a positive normal double.
// (These helpers return through references: a 4-lane double vector is an AVX register,
// which the baseline ISA's calling convention does not pass.)
template <typename D>
[[gnu::always_inline]] inline void LogLanes(const D& x, D& log) {
  using Bits = typename ExpTypes<D>::Bits;
  const Bits bits = __builtin_bit_cast(Bits, x);
  const Bits mantissa = bits & uint64_t{0x000fffffffffffff};
  // 1 + f: x's significand in [1, 2), or halved into [1/2, 1) where it reaches sqrt(2)
  // (`half` then holds bit 52, and k is one higher).
  const Bits half = (mantissa + (uint64_t{0x95f64} << 32)) & (uint64_t{1} << 52);
  const D one_plus_f = __builtin_bit_cast(D, mantissa | (half ^ uint64_t{0x3ff0000000000000}));
  // k as a double: the biased exponent (plus one where halved) in the low bits of 2^52,
  // less 2^52 + 1023.
  const D dk = __builtin_bit_cast(D, ((bits >> 52) + (half >> 52)) |
                                         uint64_t{0x4330000000000000}) -
               (0x1p52 + 1023.0);
  const D f = one_plus_f - 1.0;
  const D s = f / (2.0 + f);
  const D z = s * s;
  const D w = z * z;
  const D t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const D t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const D r = t2 + t1;
  const D hfsq = 0.5 * f * f;
  log = dk * kLogLn2Hi - ((hfsq - (s * (hfsq + r) + dk * kLogLn2Lo)) - f);
}

// cos = cos t for every lane of a double vector D, each lane in [0, 2 pi].
template <typename D>
[[gnu::always_inline]] inline void CosLanes(const D& t, D& cos) {
  using Bits = typename ExpTypes<D>::Bits;
  const D shifted = t * kInvPio2 + kExpShift;  // kExpShift + k
  const D k = shifted - kExpShift;
  const D r = (((t - k * kPio2Part1) - k * kPio2Part2) - k * kPio2Part3) - k * kPio2Part4;
  const D z = r * r;
  const D v = z * r;
  const D sin = r + v * (kS1 + z * (kS2 + z * (kS3 + z * (kS4 + z * (kS5 + z * kS6)))));
  const D c = z * (kC1 + z * (kC2 + z * (kC3 + z * (kC4 + z * (kC5 + z * kC6)))));
  const D cos_r = 1.0 - (0.5 * z - z * c);
  // cos t is cos r, -sin r, -cos r, sin r for k mod 4 = 0, 1, 2, 3.
  const Bits quadrant = __builtin_bit_cast(Bits, shifted);
  const Bits odd = Bits{} - (quadrant & uint64_t{1});
  const Bits chosen =
      (__builtin_bit_cast(Bits, sin) & odd) | (__builtin_bit_cast(Bits, cos_r) & ~odd);
  cos = __builtin_bit_cast(D, chosen ^ (((quadrant + uint64_t{1}) & uint64_t{2}) << 62));
}

// root = the square root of every lane, correctly rounded like std::sqrt, two lanes at
// a time: the wider builtins return AVX registers, which the template, compiled for the
// baseline ISA before an entry point inlines it, may not.
template <typename D>
[[gnu::always_inline]] inline void SqrtLanes(const D& x, D& root) {
  constexpr size_t kPairs = sizeof(D) / sizeof(Vec2d);
  Vec2d pairs[kPairs];
  std::memcpy(pairs, &x, sizeof(D));
#pragma GCC unroll 4
  for (size_t i = 0; i < kPairs; ++i) {
#if defined(__x86_64__)
    pairs[i] = __builtin_ia32_sqrtpd(pairs[i]);
#else
    pairs[i] = Vec2d{std::sqrt(pairs[i][0]), std::sqrt(pairs[i][1])};
#endif
  }
  std::memcpy(&root, pairs, sizeof(D));
}

// dst[l] = float(BoxMuller(u1[l], u2[l])) * stddev for the lanes l of D, through the
// vector core and the guard; lanes from `count` on are computed and not recomputed.
// Writes the core's doubles to core[0, lanes) unless it is null, and returns how many of
// the first `count` lanes the guard sent to BoxMuller.
template <typename D>
[[gnu::always_inline]] inline int64_t GaussianStrip(float* dst, const double* u1,
                                                    const double* u2, int64_t count,
                                                    float stddev, double* core) {
  using Float = typename ExpTypes<D>::Float;
  using Bits = typename ExpTypes<D>::Bits;
  D a;
  D b;
  std::memcpy(&a, u1, sizeof(D));
  std::memcpy(&b, u2, sizeof(D));
  a = a < 1e-300 ? D{} + 1e-300 : a;
  D log;
  LogLanes(a, log);
  D root;
  SqrtLanes(-2.0 * log, root);
  D cos;
  CosLanes((2.0 * M_PI) * b, cos);
  const D p = root * cos;
  if (core != nullptr) {
    std::memcpy(core, &p, sizeof(D));
  }
  const D margin = internal::kGaussianGuard *
                   __builtin_bit_cast(D, __builtin_bit_cast(Bits, p) & (~uint64_t{0} >> 1));
  const Float value = __builtin_convertvector(p, Float);
  // p's interval rounds to two floats, or p is NaN or infinite (the bounds are NaN), or
  // p rounds to 0, where the interval says nothing (no pair in [0, 1) gets there: within
  // 2^-48 of the exact value, p is at least 2^-26 * 6.1e-17).
  const auto redo = (__builtin_convertvector(p - margin, Float) !=
                     __builtin_convertvector(p + margin, Float)) |
                    (value == 0.0f);
  const Float scaled = value * stddev;
  std::memcpy(dst, &scaled, sizeof(Float));
  uint64_t words[sizeof(redo) / sizeof(uint64_t)];
  std::memcpy(words, &redo, sizeof(redo));
  uint64_t any = 0;
  for (uint64_t word : words) {
    any |= word;
  }
  if (any == 0) {
    return 0;
  }
  int64_t fallbacks = 0;
  for (int64_t l = 0; l < count; ++l) {
    if (redo[l] != 0) {
      dst[l] = static_cast<float>(BoxMuller(u1[l], u2[l])) * stddev;
      ++fallbacks;
    }
  }
  return fallbacks;
}

// dst[i] = float(BoxMuller(u1[i], u2[i])) * stddev for i in [0, n): GaussianStrip on
// every whole group of lanes, then once on the rest padded with a valid pair.
template <typename D>
[[gnu::always_inline]] inline int64_t GaussianKernel(float* dst, const double* u1,
                                                     const double* u2, int64_t n,
                                                     float stddev, double* core) {
  constexpr int64_t lanes = sizeof(D) / sizeof(double);
  int64_t fallbacks = 0;
  int64_t i = 0;
  for (; i + lanes <= n; i += lanes) {
    fallbacks += GaussianStrip<D>(dst + i, u1 + i, u2 + i, lanes, stddev,
                                  core == nullptr ? nullptr : core + i);
  }
  if (i < n) {
    const int64_t rest = n - i;
    double a[lanes];
    double b[lanes];
    std::fill_n(a, lanes, 0.5);
    std::fill_n(b, lanes, 0.5);
    std::copy_n(u1 + i, rest, a);
    std::copy_n(u2 + i, rest, b);
    float values[lanes];
    double cores[lanes];
    fallbacks += GaussianStrip<D>(values, a, b, rest, stddev, cores);
    std::copy_n(values, rest, dst + i);
    if (core != nullptr) {
      std::copy_n(cores, rest, core + i);
    }
  }
  return fallbacks;
}

int64_t GaussianKernelVec2d(float* dst, const double* u1, const double* u2, int64_t n,
                            float stddev, double* core) {
  return GaussianKernel<Vec2d>(dst, u1, u2, n, stddev, core);
}

#if defined(__x86_64__)
// The 4-lane instantiation, AVX2 and nothing beyond it.
[[gnu::target("avx2")]] int64_t GaussianKernelAvx2(float* dst, const double* u1,
                                                   const double* u2, int64_t n, float stddev,
                                                   double* core) {
  return GaussianKernel<Vec4d>(dst, u1, u2, n, stddev, core);
}

// The 8-lane instantiation, with contraction off as for the 16-lane matmul strips:
// AVX-512F has FMA. In one process, RandomNormal's draws and values at lm's shapes took
// 0.82 of the time they take on the AVX2 entry point (median of 41 alternating rounds).
[[gnu::target("avx512f"), gnu::optimize("fp-contract=off")]] int64_t GaussianKernelAvx512(
    float* dst, const double* u1, const double* u2, int64_t n, float stddev, double* core) {
  return GaussianKernel<Vec8d>(dst, u1, u2, n, stddev, core);
}
#endif

// ---- Kernel-ISA dispatch ----
//
// The entry points of one kernel ISA: every vector kernel reaches its core through the
// row of the ISA it runs on, and nothing else names an instantiation.
struct KernelEntries {
  // The matmul strips, as kStrips: skipping the terms whose A element is zero (the
  // seed's MatMul and MatMulTransposeA loops did), or adding every term.
  const StripFn* strips_skipping_zeros;
  const StripFn* strips;
  int64_t lanes;
  void (*transpose)(float* dst, int64_t ld_dst, const float* src, int64_t ld_src,
                    int64_t rows, int64_t cols);
  void (*tanh)(float* dst, const float* src, int64_t n);
  void (*exp)(float* dst, const float* src, int64_t n);
  void (*softmax)(float* dst, const float* src, int64_t rows, int64_t cols, float* tile);
  int64_t (*gaussians)(float* dst, const double* u1, const double* u2, int64_t n,
                       float stddev, double* core);
};

const KernelEntries& EntriesOf(internal::KernelIsa isa) {
  PX_CHECK(internal::KernelIsaSupported(isa))
      << internal::KernelIsaName(isa) << " is not supported by this CPU";
  static constexpr KernelEntries kVec4 = {
      kStrips<Vec4, true>.data(), kStrips<Vec4, false>.data(), kLanes<Vec4>, TransposeVec4,
      TanhKernelVec4,             ExpKernelVec4,               SoftmaxKernelVec4,
      GaussianKernelVec2d};
#if defined(__x86_64__)
  static constexpr KernelEntries kAvx2 = {
      kStrips<Vec8, true>.data(), kStrips<Vec8, false>.data(), kLanes<Vec8>, TransposeAvx2,
      TanhKernelAvx2,             ExpKernelAvx2,               SoftmaxKernelAvx2,
      GaussianKernelAvx2};
  // The matmul strips and the tanh run 16 float lanes wide, the exp and the Gaussian
  // core 8 double lanes; the transposes keep their AVX2 core.
  static constexpr KernelEntries kAvx512 = {
      kStrips<Vec16, true>.data(), kStrips<Vec16, false>.data(), kLanes<Vec16>, TransposeAvx2,
      TanhKernelAvx512,            ExpKernelAvx512,              SoftmaxKernelAvx512,
      GaussianKernelAvx512};
  switch (isa) {
    case internal::KernelIsa::kVec4:
      break;
    case internal::KernelIsa::kAvx2:
      return kAvx2;
    case internal::KernelIsa::kAvx512:
      return kAvx512;
  }
#endif
  return kVec4;
}

}  // namespace

namespace internal {

bool KernelIsaSupported(KernelIsa isa) {
#if defined(__x86_64__)
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  // The 16-lane row runs the AVX2 transposes.
  static const bool avx512 = avx2 && __builtin_cpu_supports("avx512f") != 0;
  switch (isa) {
    case KernelIsa::kVec4:
      return true;
    case KernelIsa::kAvx2:
      return avx2;
    case KernelIsa::kAvx512:
      return avx512;
  }
  return false;
#else
  return isa == KernelIsa::kVec4;
#endif
}

KernelIsa ActiveKernelIsa() {
  static const KernelIsa active = KernelIsaSupported(KernelIsa::kAvx512) ? KernelIsa::kAvx512
                                  : KernelIsaSupported(KernelIsa::kAvx2) ? KernelIsa::kAvx2
                                                                         : KernelIsa::kVec4;
  return active;
}

const char* KernelIsaName(KernelIsa isa) {
  constexpr const char* kNames[] = {"vec4", "avx2", "avx512"};
  return kNames[static_cast<int>(isa)];
}

void MatMulInto(KernelIsa isa, Tensor& out, const Tensor& a, const Tensor& b) {
  PX_CHECK_EQ(a.shape().rank(), 2);
  PX_CHECK_EQ(b.shape().rank(), 2);
  int64_t m = a.shape().dim(0);
  int64_t k = a.shape().dim(1);
  int64_t n = b.shape().dim(1);
  PX_CHECK_EQ(k, b.shape().dim(0));
  float* cv = PrepareDense2D(out, m, n);
  const KernelEntries& entries = EntriesOf(isa);
  StripMatMul(entries.strips_skipping_zeros, entries.lanes, cv, a.floats().data(), k, 1,
              b.floats().data(), m, k, n);
}

void MatMulTransposeAInto(KernelIsa isa, Tensor& out, const Tensor& a, const Tensor& b) {
  PX_CHECK_EQ(a.shape().rank(), 2);
  PX_CHECK_EQ(b.shape().rank(), 2);
  int64_t k = a.shape().dim(0);
  int64_t m = a.shape().dim(1);
  int64_t n = b.shape().dim(1);
  PX_CHECK_EQ(k, b.shape().dim(0));
  float* cv = PrepareDense2D(out, m, n);
  // A^T's row i is A's column i: one strided scalar read per p.
  const KernelEntries& entries = EntriesOf(isa);
  StripMatMul(entries.strips_skipping_zeros, entries.lanes, cv, a.floats().data(), 1, m,
              b.floats().data(), m, k, n);
}

void MatMulTransposeBInto(KernelIsa isa, Tensor& out, const Tensor& a, const Tensor& b) {
  PX_CHECK_EQ(a.shape().rank(), 2);
  PX_CHECK_EQ(b.shape().rank(), 2);
  int64_t m = a.shape().dim(0);
  int64_t k = a.shape().dim(1);
  int64_t n = b.shape().dim(0);
  PX_CHECK_EQ(k, b.shape().dim(1));
  float* cv = PrepareDense2D(out, m, n);
  // Pack B^T as row-major [k, n] so a strip of output columns reads contiguous floats.
  float* bt = PackBuffer(static_cast<size_t>(k * n));
  const KernelEntries& entries = EntriesOf(isa);
  entries.transpose(bt, n, b.floats().data(), k, n, k);
  // The seed's dot product added every term, so no zero skipping here.
  StripMatMul(entries.strips, entries.lanes, cv, a.floats().data(), k, 1, bt, m, k, n);
}

float ScalarTanh(float x) { return FdlibmTanhf(x); }

void TanhInto(KernelIsa isa, Tensor& out, const Tensor& a) {
  const KernelEntries& entries = EntriesOf(isa);
  float* dst = PrepareDense(out, a.shape(), /*zero_fill=*/false);
  entries.tanh(dst, a.floats().data(), a.num_elements());
}

float ScalarExp(float x) { return GlibcExpf(x); }

void ExpInto(KernelIsa isa, Tensor& out, const Tensor& a) {
  const KernelEntries& entries = EntriesOf(isa);
  float* dst = PrepareDense(out, a.shape(), /*zero_fill=*/false);
  entries.exp(dst, a.floats().data(), a.num_elements());
}

void SoftmaxRowsInto(KernelIsa isa, Tensor& out, const Tensor& logits) {
  const KernelEntries& entries = EntriesOf(isa);
  PX_CHECK_EQ(logits.shape().rank(), 2);
  const int64_t rows = logits.shape().dim(0);
  const int64_t cols = logits.shape().dim(1);
  float* dst = PrepareDense(out, logits.shape(), /*zero_fill=*/false);
  if (cols == 0) {
    return;
  }
  const float* src = logits.floats().data();
  // Room for the widest softmax core's tile.
  float* tile = PackBuffer(static_cast<size_t>(kLanes<Vec8> * cols));
  entries.softmax(dst, src, rows, cols, tile);
}

void RandomNormalInto(KernelIsa isa, std::span<float> out, Rng& rng, float stddev) {
  const KernelEntries& entries = EntriesOf(isa);
  // The uniforms of one chunk of values, drawn in the seed's order: u1, then u2, per value.
  constexpr size_t kChunk = 256;
  double u1[kChunk];
  double u2[kChunk];
  for (size_t begin = 0; begin < out.size(); begin += kChunk) {
    const size_t n = std::min(kChunk, out.size() - begin);
    for (size_t i = 0; i < n; ++i) {
      u1[i] = rng.NextDouble();
      u2[i] = rng.NextDouble();
    }
    entries.gaussians(out.data() + begin, u1, u2, static_cast<int64_t>(n), stddev, nullptr);
  }
}

int64_t GaussiansInto(KernelIsa isa, std::span<const double> u1, std::span<const double> u2,
                      float stddev, std::span<float> out, std::span<double> core) {
  const KernelEntries& entries = EntriesOf(isa);
  PX_CHECK_EQ(u1.size(), u2.size());
  PX_CHECK_EQ(out.size(), u1.size());
  PX_CHECK(core.empty() || core.size() == u1.size());
  for (size_t i = 0; i < u1.size(); ++i) {
    PX_CHECK(u1[i] >= 0.0 && u1[i] < 1.0 && u2[i] >= 0.0 && u2[i] < 1.0)
        << "uniform pair " << i << " outside [0, 1)";
  }
  return entries.gaussians(out.data(), u1.data(), u2.data(), static_cast<int64_t>(out.size()),
                           stddev, core.empty() ? nullptr : core.data());
}

}  // namespace internal

void MatMulInto(Tensor& out, const Tensor& a, const Tensor& b) {
  internal::MatMulInto(internal::ActiveKernelIsa(), out, a, b);
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  Tensor c;
  MatMulInto(c, a, b);
  return c;
}

void MatMulTransposeAInto(Tensor& out, const Tensor& a, const Tensor& b) {
  internal::MatMulTransposeAInto(internal::ActiveKernelIsa(), out, a, b);
}

Tensor MatMulTransposeA(const Tensor& a, const Tensor& b) {
  Tensor c;
  MatMulTransposeAInto(c, a, b);
  return c;
}

void MatMulTransposeBInto(Tensor& out, const Tensor& a, const Tensor& b) {
  internal::MatMulTransposeBInto(internal::ActiveKernelIsa(), out, a, b);
}

Tensor MatMulTransposeB(const Tensor& a, const Tensor& b) {
  Tensor c;
  MatMulTransposeBInto(c, a, b);
  return c;
}

Tensor Transpose2D(const Tensor& a) {
  PX_CHECK_EQ(a.shape().rank(), 2);
  int64_t m = a.shape().dim(0);
  int64_t n = a.shape().dim(1);
  Tensor out = Tensor::Zeros(TensorShape({n, m}));
  EntriesOf(internal::ActiveKernelIsa())
      .transpose(out.mutable_floats().data(), m, a.floats().data(), n, m, n);
  return out;
}

void TanhInto(Tensor& out, const Tensor& a) {
  internal::TanhInto(internal::ActiveKernelIsa(), out, a);
}

Tensor Tanh(const Tensor& a) {
  Tensor out;
  TanhInto(out, a);
  return out;
}

void TanhGradInto(Tensor& out, const Tensor& output, const Tensor& grad) {
  CheckSameShape(output, grad);
  float* dst = PrepareDense(out, grad.shape(), /*zero_fill=*/false);
  auto g = grad.floats();
  auto y = output.floats();
  for (size_t i = 0; i < g.size(); ++i) {
    dst[i] = g[i] * (1.0f - y[i] * y[i]);
  }
}

Tensor TanhGrad(const Tensor& output, const Tensor& grad) {
  Tensor out;
  TanhGradInto(out, output, grad);
  return out;
}

void ReluInto(Tensor& out, const Tensor& a) {
  float* dst = PrepareDense(out, a.shape(), /*zero_fill=*/false);
  auto src = a.floats();
  for (size_t i = 0; i < src.size(); ++i) {
    dst[i] = std::max(src[i], 0.0f);
  }
}

Tensor Relu(const Tensor& a) {
  Tensor out;
  ReluInto(out, a);
  return out;
}

void ReluGradInto(Tensor& out, const Tensor& input, const Tensor& grad) {
  CheckSameShape(input, grad);
  float* dst = PrepareDense(out, grad.shape(), /*zero_fill=*/false);
  auto g = grad.floats();
  auto x = input.floats();
  for (size_t i = 0; i < g.size(); ++i) {
    dst[i] = x[i] <= 0.0f ? 0.0f : g[i];
  }
}

Tensor ReluGrad(const Tensor& input, const Tensor& grad) {
  Tensor out;
  ReluGradInto(out, input, grad);
  return out;
}

Tensor SoftmaxRows(const Tensor& logits) {
  Tensor out;
  SoftmaxRowsInto(out, logits);
  return out;
}

void SoftmaxRowsInto(Tensor& out, const Tensor& logits) {
  internal::SoftmaxRowsInto(internal::ActiveKernelIsa(), out, logits);
}

float SoftmaxCrossEntropy(const Tensor& logits, const Tensor& labels, Tensor* grad_logits) {
  Tensor probs;
  return SoftmaxCrossEntropyInto(probs, logits, labels, grad_logits);
}

float SoftmaxCrossEntropyInto(Tensor& probs, const Tensor& logits, const Tensor& labels,
                              Tensor* grad_logits) {
  PX_CHECK_EQ(logits.shape().rank(), 2);
  int64_t rows = logits.shape().dim(0);
  int64_t cols = logits.shape().dim(1);
  auto label_ids = labels.ints();
  PX_CHECK_EQ(static_cast<int64_t>(label_ids.size()), rows);
  SoftmaxRowsInto(probs, logits);
  auto p = probs.floats();
  double loss = 0.0;
  for (int64_t r = 0; r < rows; ++r) {
    int64_t label = label_ids[static_cast<size_t>(r)];
    PX_CHECK_GE(label, 0);
    PX_CHECK_LT(label, cols);
    float prob = std::max(p[static_cast<size_t>(r * cols + label)], 1e-12f);
    loss -= std::log(prob);
  }
  loss /= static_cast<double>(rows);
  if (grad_logits != nullptr) {
    SoftmaxCrossEntropyGradInto(*grad_logits, probs, labels);
  }
  return static_cast<float>(loss);
}

void SoftmaxCrossEntropyGradInto(Tensor& grad_logits, const Tensor& probs,
                                 const Tensor& labels) {
  PX_CHECK_EQ(probs.shape().rank(), 2);
  int64_t rows = probs.shape().dim(0);
  int64_t cols = probs.shape().dim(1);
  auto label_ids = labels.ints();
  PX_CHECK_EQ(static_cast<int64_t>(label_ids.size()), rows);
  CopyInto(grad_logits, probs);
  auto g = grad_logits.mutable_floats();
  float inv_rows = 1.0f / static_cast<float>(rows);
  for (int64_t r = 0; r < rows; ++r) {
    int64_t label = label_ids[static_cast<size_t>(r)];
    PX_CHECK_GE(label, 0);
    PX_CHECK_LT(label, cols);
    g[static_cast<size_t>(r * cols + label)] -= 1.0f;
  }
  for (float& v : g) {
    v *= inv_rows;
  }
}

void GatherRowsInto(Tensor& out, const Tensor& params, std::span<const int64_t> indices) {
  PX_CHECK_GE(params.shape().rank(), 1);
  int64_t row = params.shape().row_elements();
  float* dst = PrepareDenseRows(out, params.shape(), static_cast<int64_t>(indices.size()),
                                /*zero_fill=*/false);
  auto src = params.floats();
  for (size_t i = 0; i < indices.size(); ++i) {
    int64_t index = indices[i];
    PX_CHECK_GE(index, 0);
    PX_CHECK_LT(index, params.shape().dim(0));
    std::copy_n(src.begin() + static_cast<ptrdiff_t>(index * row),
                row, dst + static_cast<int64_t>(i) * row);
  }
}

Tensor GatherRows(const Tensor& params, std::span<const int64_t> indices) {
  Tensor out;
  GatherRowsInto(out, params, indices);
  return out;
}

void ScatterAddInPlace(Tensor& params, const IndexedSlices& slices) {
  PX_CHECK(params.shape() == slices.dense_shape())
      << params.shape().ToString() << " vs " << slices.dense_shape().ToString();
  int64_t row = params.shape().row_elements();
  auto dst = params.mutable_floats();
  auto src = slices.values().floats();
  for (int64_t i = 0; i < slices.nnz_rows(); ++i) {
    int64_t base = slices.indices()[static_cast<size_t>(i)] * row;
    for (int64_t j = 0; j < row; ++j) {
      dst[static_cast<size_t>(base + j)] += src[static_cast<size_t>(i * row + j)];
    }
  }
}

void ScatterSgdUpdate(Tensor& params, const IndexedSlices& grad, float learning_rate) {
  PX_CHECK(params.shape() == grad.dense_shape());
  const int64_t row = params.shape().row_elements();
  auto dst = params.mutable_floats();
  auto src = grad.values().floats();
  const std::vector<int64_t>& indices = grad.indices();
  for (int64_t i = 0; i < grad.nnz_rows(); ++i) {
    SgdUpdateRow(dst.data() + indices[static_cast<size_t>(i)] * row, src.data() + i * row,
                 row, learning_rate, /*average=*/false, 1.0f);
  }
}

Tensor SliceRows(const Tensor& input, int64_t row_begin, int64_t row_end) {
  PX_CHECK_GE(input.shape().rank(), 1);
  PX_CHECK_GE(row_begin, 0);
  PX_CHECK_LE(row_begin, row_end);
  PX_CHECK_LE(row_end, input.shape().dim(0));
  int64_t row = input.shape().row_elements();
  if (input.is_int()) {
    Tensor out(DataType::kInt64, input.shape().WithDim0(row_end - row_begin));
    auto src = input.ints();
    auto dst = out.mutable_ints();
    std::copy_n(src.begin() + static_cast<ptrdiff_t>(row_begin * row),
                (row_end - row_begin) * row, dst.begin());
    return out;
  }
  Tensor out = Tensor::Zeros(input.shape().WithDim0(row_end - row_begin));
  auto src = input.floats();
  auto dst = out.mutable_floats();
  std::copy_n(src.begin() + static_cast<ptrdiff_t>(row_begin * row), (row_end - row_begin) * row,
              dst.begin());
  return out;
}

void SliceColsInto(Tensor& out, const Tensor& input, int64_t col_begin, int64_t col_end) {
  PX_CHECK_EQ(input.shape().rank(), 2);
  PX_CHECK_GE(col_begin, 0);
  PX_CHECK_LE(col_begin, col_end);
  PX_CHECK_LE(col_end, input.shape().dim(1));
  int64_t rows = input.shape().dim(0);
  int64_t cols = input.shape().dim(1);
  int64_t out_cols = col_end - col_begin;
  float* dst = PrepareDense2D(out, rows, out_cols);
  auto src = input.floats();
  for (int64_t r = 0; r < rows; ++r) {
    std::copy_n(src.begin() + static_cast<ptrdiff_t>(r * cols + col_begin), out_cols,
                dst + r * out_cols);
  }
}

Tensor SliceCols(const Tensor& input, int64_t col_begin, int64_t col_end) {
  Tensor out;
  SliceColsInto(out, input, col_begin, col_end);
  return out;
}

void ColumnSumInto(Tensor& out, const Tensor& input) {
  PX_CHECK_EQ(input.shape().rank(), 2);
  int64_t rows = input.shape().dim(0);
  int64_t cols = input.shape().dim(1);
  float* dst = PrepareDense1D(out, cols, /*zero_fill=*/true);
  auto src = input.floats();
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      dst[c] += src[static_cast<size_t>(r * cols + c)];
    }
  }
}

Tensor ColumnSum(const Tensor& input) {
  Tensor out;
  ColumnSumInto(out, input);
  return out;
}

void CopyInto(Tensor& out, const Tensor& in) {
  PX_CHECK(in.is_float());
  float* dst = PrepareDense(out, in.shape(), /*zero_fill=*/false);
  auto src = in.floats();
  std::copy(src.begin(), src.end(), dst);
}

void ConcatRowsInto(Tensor& out, std::span<const Tensor* const> parts) {
  PX_CHECK(!parts.empty());
  int64_t total_rows = 0;
  const TensorShape& first = parts.front()->shape();
  for (const Tensor* part : parts) {
    PX_CHECK(part != nullptr && part->is_float());
    PX_CHECK_GE(part->shape().rank(), 1);
    PX_CHECK_EQ(part->shape().row_elements(), first.row_elements());
    total_rows += part->shape().dim(0);
  }
  float* dst = PrepareDenseRows(out, first, total_rows, /*zero_fill=*/false);
  for (const Tensor* part : parts) {
    auto src = part->floats();
    std::copy(src.begin(), src.end(), dst);
    dst += src.size();
  }
}

void ConcatColsPairInto(Tensor& out, const Tensor& a, const Tensor& b) {
  PX_CHECK_EQ(a.shape().rank(), 2);
  PX_CHECK_EQ(b.shape().rank(), 2);
  PX_CHECK_EQ(a.shape().dim(0), b.shape().dim(0));
  int64_t rows = a.shape().dim(0);
  int64_t pa = a.shape().dim(1);
  int64_t pb = b.shape().dim(1);
  float* dst = PrepareDense2D(out, rows, pa + pb);
  auto av = a.floats();
  auto bv = b.floats();
  for (int64_t r = 0; r < rows; ++r) {
    std::copy_n(av.begin() + static_cast<ptrdiff_t>(r * pa), pa, dst + r * (pa + pb));
    std::copy_n(bv.begin() + static_cast<ptrdiff_t>(r * pb), pb,
                dst + r * (pa + pb) + pa);
  }
}

Tensor ConcatColsPair(const Tensor& a, const Tensor& b) {
  Tensor out;
  ConcatColsPairInto(out, a, b);
  return out;
}

Tensor ConcatRows(const std::vector<Tensor>& pieces) {
  PX_CHECK(!pieces.empty());
  int64_t row = pieces.front().shape().row_elements();
  int64_t total = 0;
  for (const Tensor& piece : pieces) {
    PX_CHECK_EQ(piece.shape().row_elements(), row);
    total += piece.shape().dim(0);
  }
  Tensor out = Tensor::Zeros(pieces.front().shape().WithDim0(total));
  auto dst = out.mutable_floats();
  int64_t offset = 0;
  for (const Tensor& piece : pieces) {
    auto src = piece.floats();
    std::copy(src.begin(), src.end(), dst.begin() + static_cast<ptrdiff_t>(offset * row));
    offset += piece.shape().dim(0);
  }
  return out;
}

void RandomNormalInto(std::span<float> out, Rng& rng, float stddev) {
  internal::RandomNormalInto(internal::ActiveKernelIsa(), out, rng, stddev);
}

Tensor RandomNormal(TensorShape shape, Rng& rng, float stddev) {
  Tensor out = Tensor::Zeros(std::move(shape));
  RandomNormalInto(out.mutable_floats(), rng, stddev);
  return out;
}

Tensor GlorotUniform(TensorShape shape, Rng& rng) {
  PX_CHECK_EQ(shape.rank(), 2);
  float limit = std::sqrt(6.0f / static_cast<float>(shape.dim(0) + shape.dim(1)));
  Tensor out = Tensor::Zeros(std::move(shape));
  for (float& v : out.mutable_floats()) {
    v = static_cast<float>(rng.NextUniform(-limit, limit));
  }
  return out;
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  auto av = a.floats();
  auto bv = b.floats();
  float max_diff = 0.0f;
  for (size_t i = 0; i < av.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(av[i] - bv[i]));
  }
  return max_diff;
}

bool AllClose(const Tensor& a, const Tensor& b, float atol) {
  return a.shape() == b.shape() && MaxAbsDiff(a, b) <= atol;
}

}  // namespace parallax
