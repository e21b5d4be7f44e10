#include "src/graph/checkpoint.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "src/base/strings.h"

namespace parallax {
namespace {

constexpr uint64_t kMagic = 0x70784c4158ull;  // "pxLAX"
// Format history: v1 (unversioned) was [magic][count][records]; v2 adds the version
// word and the training metadata the crash-recovery path resumes from. No v1 files
// exist outside of tests, so the loader only accepts v2.
constexpr uint64_t kVersion = 2;
// A dimension past this is corruption, not a model: rejecting here keeps a hostile
// dims section from driving TensorShape into signed-overflow territory (UB) or the
// allocator into the ground before the shape check can fail it.
constexpr uint64_t kMaxDim = 1ull << 40;
constexpr uint64_t kMaxRank = 16;

struct FileCloser {
  void operator()(std::FILE* file) const {
    if (file != nullptr) {
      std::fclose(file);
    }
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool WriteU64(std::FILE* file, uint64_t value) {
  return std::fwrite(&value, sizeof(value), 1, file) == 1;
}

bool ReadU64(std::FILE* file, uint64_t& value) {
  return std::fread(&value, sizeof(value), 1, file) == 1;
}

uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

Status WriteBody(std::FILE* file, const Graph& graph, const VariableStore& store,
                 const CheckpointMeta& meta) {
  if (!WriteU64(file, kMagic) || !WriteU64(file, kVersion) ||
      !WriteU64(file, static_cast<uint64_t>(meta.step)) ||
      !WriteU64(file, DoubleBits(meta.simulated_seconds)) ||
      !WriteU64(file, graph.variables().size())) {
    return Status::Internal("checkpoint header write failed");
  }
  for (size_t v = 0; v < graph.variables().size(); ++v) {
    const Tensor& value = store.Get(static_cast<int>(v));
    const TensorShape& shape = value.shape();
    if (!WriteU64(file, v) || !WriteU64(file, static_cast<uint64_t>(shape.rank()))) {
      return Status::Internal("checkpoint variable header write failed");
    }
    for (int d = 0; d < shape.rank(); ++d) {
      if (!WriteU64(file, static_cast<uint64_t>(shape.dim(d)))) {
        return Status::Internal("checkpoint dims write failed");
      }
    }
    auto data = value.floats();
    if (std::fwrite(data.data(), sizeof(float), data.size(), file) != data.size()) {
      return Status::Internal("checkpoint data write failed");
    }
  }
  return Status::Ok();
}

}  // namespace

Status SaveCheckpoint(const Graph& graph, const VariableStore& store,
                      const std::string& path, const CheckpointMeta& meta) {
  // Write to a sibling temp file and rename into place: a crash (or a simulated rank
  // death) mid-save leaves the previous checkpoint intact instead of a torn file —
  // the property the recovery path's "restore from the LAST checkpoint" relies on.
  const std::string tmp = path + ".tmp";
  {
    FilePtr file(std::fopen(tmp.c_str(), "wb"));
    if (file == nullptr) {
      return Status::InvalidArgument("cannot open checkpoint for writing: " + tmp);
    }
    Status written = WriteBody(file.get(), graph, store, meta);
    if (!written.ok()) {
      file.reset();
      std::remove(tmp.c_str());
      return written;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("checkpoint rename failed: " + path);
  }
  return Status::Ok();
}

StatusOr<VariableStore> LoadCheckpoint(const Graph& graph, const std::string& path,
                                       CheckpointMeta* meta) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::NotFound("checkpoint not found: " + path);
  }
  uint64_t magic = 0;
  if (!ReadU64(file.get(), magic) || magic != kMagic) {
    return Status::InvalidArgument("not a Parallax checkpoint: " + path);
  }
  uint64_t version = 0;
  if (!ReadU64(file.get(), version) || version != kVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported checkpoint version %llu (expected %llu): %s",
                  static_cast<unsigned long long>(version),
                  static_cast<unsigned long long>(kVersion), path.c_str()));
  }
  uint64_t step = 0;
  uint64_t seconds_bits = 0;
  uint64_t count = 0;
  if (!ReadU64(file.get(), step) || !ReadU64(file.get(), seconds_bits) ||
      !ReadU64(file.get(), count)) {
    return Status::InvalidArgument("truncated checkpoint header: " + path);
  }
  // A restore installs both: a step past int64_t would wrap negative, and a clock that
  // is not a finite, non-negative time stops the next simulated iteration.
  const double seconds = BitsToDouble(seconds_bits);
  if (step > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    return Status::InvalidArgument(
        StrFormat("corrupt checkpoint step %llu: %s", static_cast<unsigned long long>(step),
                  path.c_str()));
  }
  if (!std::isfinite(seconds) || seconds < 0.0) {
    return Status::InvalidArgument(
        StrFormat("corrupt checkpoint clock %g s: %s", seconds, path.c_str()));
  }
  if (count != graph.variables().size()) {
    return Status::FailedPrecondition(
        StrFormat("checkpoint holds %llu variables, graph has %zu — the checkpoint "
                  "belongs to a different model",
                  static_cast<unsigned long long>(count), graph.variables().size()));
  }
  VariableStore store;
  std::vector<bool> seen(graph.variables().size(), false);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t index = 0;
    uint64_t rank = 0;
    if (!ReadU64(file.get(), index) || !ReadU64(file.get(), rank) || rank > kMaxRank) {
      return Status::InvalidArgument("corrupt checkpoint variable header");
    }
    std::vector<int64_t> dims(static_cast<size_t>(rank));
    for (uint64_t d = 0; d < rank; ++d) {
      uint64_t dim = 0;
      if (!ReadU64(file.get(), dim)) {
        return Status::InvalidArgument("corrupt checkpoint dims");
      }
      // Bounds-check BEFORE the shape exists: a dim this large is corruption, and
      // letting it through would overflow num_elements or stall in the allocator.
      if (dim > kMaxDim) {
        return Status::InvalidArgument(
            StrFormat("checkpoint dims overflow: dim[%llu] = %llu for variable %llu",
                      static_cast<unsigned long long>(d),
                      static_cast<unsigned long long>(dim),
                      static_cast<unsigned long long>(index)));
      }
      dims[static_cast<size_t>(d)] = static_cast<int64_t>(dim);
    }
    TensorShape shape(dims);
    if (index >= graph.variables().size() ||
        !(graph.variables()[static_cast<size_t>(index)].shape == shape)) {
      return Status::FailedPrecondition("checkpoint shape mismatch for variable " +
                                        std::to_string(index));
    }
    // The count matches the graph, so a repeated record means another variable has no
    // value — a store that restores would silently keep that variable's live value.
    if (seen[static_cast<size_t>(index)]) {
      return Status::InvalidArgument("checkpoint names variable " + std::to_string(index) +
                                     " twice: " + path);
    }
    seen[static_cast<size_t>(index)] = true;
    Tensor value = Tensor::Zeros(shape);
    auto data = value.mutable_floats();
    if (std::fread(data.data(), sizeof(float), data.size(), file.get()) != data.size()) {
      return Status::InvalidArgument("truncated checkpoint data section: " + path);
    }
    store.Set(static_cast<int>(index), std::move(value));
  }
  if (meta != nullptr) {
    meta->step = static_cast<int64_t>(step);
    meta->simulated_seconds = seconds;
  }
  return store;
}

int64_t CheckpointFileBytes(const Graph& graph) {
  // Header: magic, version, step, seconds, count.
  int64_t bytes = 5 * static_cast<int64_t>(sizeof(uint64_t));
  for (const VariableDef& def : graph.variables()) {
    bytes += (2 + def.shape.rank()) * static_cast<int64_t>(sizeof(uint64_t));
    bytes += def.shape.num_elements() * static_cast<int64_t>(sizeof(float));
  }
  return bytes;
}

}  // namespace parallax
