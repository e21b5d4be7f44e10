// "int8_ps": synchronous parameter-server training with per-row int8 gradient
// quantization (docs/compression.md).
//
// Same wrapper shape as "topk_ps": Prepare translates the SyncPlan into the inner
// PS numeric runtime's config (PsNumericConfigFor), and ApplyStep hands it quantize-dequantized per-rank
// gradients — every managed gradient row (sparse slice rows AND dense rows) is
// symmetrically quantized to int8 against its own max-abs scale and immediately
// dequantized, so the values the accumulators sum are exactly the values an int8 wire
// format would reconstruct. The timing plane prices 1 byte per element plus a 4-byte
// scale per row (CostCompression -> kInt8). Gradient support is untouched: the
// observer sees the same nnz as uncompressed PS, and identity mode (a pass-through
// quantizer) is bit-identical to "ps" — the equivalence suite asserts it.
#ifndef PARALLAX_SRC_SYNC_INT8_PS_H_
#define PARALLAX_SRC_SYNC_INT8_PS_H_

#include <vector>

#include "src/ps/ps_numeric.h"

namespace parallax {

struct Int8PsConfig {
  // Identity quantizer: skip the transform entirely and delegate to the inner engine
  // on the original results (exact "ps" pass-through; the equivalence-suite control).
  bool identity = false;
};

// Registers an Int8PsEngine factory with `config` under `name` in the global registry.
// Same Status contract as SyncEngineRegistry::Register.
Status RegisterInt8PsEngine(const std::string& name, Int8PsConfig config);

class Int8PsEngine : public SyncEngine {
 public:
  Int8PsEngine(const Graph* graph, Int8PsConfig config);

  // SyncEngine:
  void Prepare(const SyncPlan& plan) override;
  void ApplyStep(const std::vector<StepResult>& per_rank, float learning_rate) override;
  VariableStore View() const override { return engine_.View(); }
  SyncMethod CostMethod(GradKind) const override { return SyncMethod::kPs; }
  CompressionSpec CostCompression(GradKind kind) const override;
  void LoadValues(const VariableStore& values) override { engine_.LoadValues(values); }
  void set_observer(SparseAccessObserver* observer) override {
    SyncEngine::set_observer(observer);
    engine_.set_observer(observer);
  }

  const Int8PsConfig& config() const { return config_; }

 private:
  void QuantizeGrad(const GradValue& incoming, GradValue& out);

  Int8PsConfig config_;
  PsNumericEngine engine_;
  const Graph* graph_;
  std::vector<uint8_t> managed_;  // parallel to Graph::variables()
  // Engine-owned quantized per-rank results — the incoming StepResults are shared
  // with every other engine and must never be mutated.
  std::vector<StepResult> quantized_;
};

}  // namespace parallax

#endif  // PARALLAX_SRC_SYNC_INT8_PS_H_
