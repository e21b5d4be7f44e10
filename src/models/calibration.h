// Calibration constants for the simulated testbed (DESIGN.md section 5).
//
// These are the only "fitted" numbers in the reproduction; everything else (queueing,
// ring schedules, accumulator serialization, partition parallelism) is mechanistic.
// GPU compute times place single-machine throughput near Figure 8's left edge; CPU-side
// rates are typical of single-core sparse accumulation in TF-era parameter servers.
#ifndef PARALLAX_SRC_MODELS_CALIBRATION_H_
#define PARALLAX_SRC_MODELS_CALIBRATION_H_

namespace parallax {

// CPU/GPU-side synchronization costs shared by the PS and AR timing engines.
struct SyncCostParams {
  // Server-side sparse gradient accumulation: iterating nonzero indices one by one
  // (paper section 3.2) — the serial per-accumulator cost partitioning parallelizes.
  // ~36M elements/s, typical of TF-era sparse accumulators (deserialize + index walk).
  double sparse_agg_seconds_per_element = 28e-9;
  // Server-side sparse variable update (scatter-apply of the aggregated gradient).
  double sparse_update_seconds_per_element = 12e-9;
  // Per-piece flush cost of the update op: taking the accumulated gradient and writing
  // the variable piece traverses the piece's storage (accumulator TakeGrad + optimizer
  // apply). Scaling with piece size — not touched rows — is why partitioning pays off
  // hugely for LM's 813M-element variables and only mildly for NMT's 75M (Table 2).
  double sparse_flush_seconds_per_element = 8e-9;
  // Server-side dense gradient accumulation. Per-accumulator it is a serial chain of
  // single-threaded adds (deserialize + sum), which is what makes an unpartitioned
  // 2M-element FC layer a PS bottleneck on dense models.
  double dense_agg_seconds_per_element = 1.2e-9;
  // Server-side dense update.
  double dense_update_seconds_per_element = 0.5e-9;
  // Request handling (RPC dispatch, protobuf) per pull or push request, on server cores.
  double request_overhead_seconds = 30e-6;
  // Fixed per-partition bookkeeping per iteration (accumulator management, queue ops).
  double partition_overhead_seconds = 200e-6;
  // Worker-side stitch of partitioned pull results, per partition (tf.dynamic_stitch).
  double stitch_seconds_per_partition = 120e-6;
  // Worker-side op-dispatch cost per PS piece per iteration (the session scheduling of
  // per-piece gather/send/recv ops is serialized on the client) — with the stitch cost,
  // the theta2 * P term of Equation 1 that makes blindly increasing P counterproductive.
  double worker_dispatch_seconds_per_piece = 60e-6;
  // Worker GPU applying an aggregated dense gradient (axpy, bandwidth bound).
  double gpu_dense_apply_seconds_per_element = 0.3e-9;
  // Worker GPU applying gathered sparse gradients (atomically scattered rows; this is
  // what makes Horovod's AllGatherv path slow even at small scale).
  double gpu_sparse_apply_seconds_per_element = 1.5e-9;
  // Collective per-step launch overhead.
  double collective_step_overhead_seconds = 25e-6;
  // Worker-side gradient compression (top-k selection / int8 quantization) per RAW
  // gradient element scanned before the push — a single streaming pass over the
  // backward output (~500M elements/s on host cores). Charged only for variables
  // whose engine declares a CompressionSpec; uncompressed plans add no task at all.
  double compress_seconds_per_element = 2e-9;
  // Effective-bandwidth derate for the OpenMPI broadcast-style AllGatherv on cross-
  // machine hops (the paper had to run AllGatherv over OpenMPI rather than NCCL,
  // section 6.1; OpenMPI's mid-size-message path underutilizes InfiniBand).
  double gatherv_cross_machine_inflation = 2.0;
  // OpenMPI tuned-collective behavior: blocks at or above this size take the
  // bandwidth-efficient ring algorithm; smaller blocks take the broadcast-style path
  // with the inflation above.
  int64_t gatherv_ring_threshold_bytes = 16ll << 20;

  bool operator==(const SyncCostParams& other) const = default;
};

}  // namespace parallax

#endif  // PARALLAX_SRC_MODELS_CALIBRATION_H_
