// Numeric semantics of the collectives: what values every participant ends up holding.
//
// AllReduce over dense gradients computes an element-wise sum in deterministic
// participant order (so distributed runs compare bit-for-bit against the single-device
// reference); the engines sum into their own buffers (ArNumericEngine, PsNumericEngine).
// AllGatherv over sparse gradients concatenates the participants' slices — exactly the
// aggregation semantics the paper attributes to each primitive (section 2.1).
#ifndef PARALLAX_SRC_COMM_REDUCE_H_
#define PARALLAX_SRC_COMM_REDUCE_H_

#include <vector>

#include "src/tensor/indexed_slices.h"

namespace parallax {

// Method for combining per-worker gradients into the applied gradient. Average divides by
// the participant count; Sum applies the raw sum (ParallaxConfig exposes the choice per
// variable kind, mirroring the paper's aggregation-method configuration in section 4.1).
enum class AggregationMethod {
  kSum,
  kAverage,
};

// Concatenation of sparse contributions in index order (AllGatherv semantics).
IndexedSlices AllGathervConcat(const std::vector<IndexedSlices>& contributions);

// Concatenation followed by the aggregation method (scaling values for kAverage).
IndexedSlices AllGathervAggregate(const std::vector<IndexedSlices>& contributions,
                                  AggregationMethod method);

}  // namespace parallax

#endif  // PARALLAX_SRC_COMM_REDUCE_H_
