// Gradient compression kernels (docs/compression.md): the top-k row selection behind
// the "topk_ps" engine and the per-row int8 quantize-dequantize behind "int8_ps".
//
// Both kernels are deterministic and allocation-free once their scratch is warm — the
// selection keeps its candidate permutation in a caller's scratch vector, the quantizer
// is a pure two-pass scan. The engines in this directory compose them with
// the PS numeric runtime; the property tests in tests/compression_kernel_test.cc pin
// their semantics against naive references.
#ifndef PARALLAX_SRC_SYNC_COMPRESSION_H_
#define PARALLAX_SRC_SYNC_COMPRESSION_H_

#include <cstdint>
#include <span>
#include <vector>

namespace parallax {

// Selects the k highest-scoring rows out of `rows`/`scores` (parallel arrays) into
// `selected`, ascending by row id. Ordering is (score descending, row id ascending) —
// the deterministic tie-break that makes selection reproducible across runs and
// duplicate-magnitude inputs. k <= 0 selects nothing; k >= rows.size() selects every
// row. Duplicate row ids are legal (each candidate competes independently; equal
// (score, row) candidates are interchangeable, so the selected row multiset is still
// deterministic). `scratch` backs the candidate permutation (grow-only); nullptr
// allocates locally.
void TopKSelectRows(std::span<const int64_t> rows, std::span<const float> scores,
                    int64_t k, std::vector<int64_t>& selected,
                    std::vector<int64_t>* scratch = nullptr);

// Per-row symmetric int8 quantize-dequantize over a [rows, row_width] value block:
// scale_r = maxabs(row r) / 127, v' = clamp(round(v / scale_r), -127, 127) * scale_r.
// An all-zero row gets scale 0 and stays zero. `dst` may alias `src` (in-place).
// Round-trip error per element is bounded by scale_r / 2, the row maximum survives
// exactly up to float rounding, and identical inputs produce identical outputs. When
// `scales` is non-null it is resized to `rows` and filled
// with the per-row scales — the vector that rides the simulated wire alongside the
// int8 payload.
void QuantizeDequantizeInt8Rows(std::span<const float> src, std::span<float> dst,
                                int64_t rows, int64_t row_width,
                                std::vector<float>* scales = nullptr);

}  // namespace parallax

#endif  // PARALLAX_SRC_SYNC_COMPRESSION_H_
