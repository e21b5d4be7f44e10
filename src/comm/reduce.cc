#include "src/comm/reduce.h"

namespace parallax {

IndexedSlices AllGathervConcat(const std::vector<IndexedSlices>& contributions) {
  return IndexedSlices::Concat(contributions);
}

IndexedSlices AllGathervAggregate(const std::vector<IndexedSlices>& contributions,
                                  AggregationMethod method) {
  IndexedSlices result = IndexedSlices::Concat(contributions);
  if (method == AggregationMethod::kAverage) {
    result.Scale(1.0f / static_cast<float>(contributions.size()));
  }
  return result;
}

}  // namespace parallax
