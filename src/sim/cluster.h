// Deterministic cluster model: machines with full-duplex NICs, PCIe-class intra-machine
// links, a CPU core pool, and GPU compute devices.
//
// This is the substitute for the paper's physical testbed (8 machines x 6 TITAN Xp,
// 100 Gbps InfiniBand). Resources are modeled as queueing servers in *virtual time*:
//  - LinkQueue: FIFO byte server. A transfer occupies the sender's out-link and the
//    receiver's in-link (store-and-forward), serializing with other traffic on either
//    link. Many-to-one traffic therefore queues at the receiver's in-link, which is
//    exactly the PS incast asymmetry the paper analyzes in section 3.1.
//  - CorePool: k-server queue; CPU work items (gradient aggregation, update ops, request
//    handling) occupy one core each, so partition-level parallelism and core contention
//    emerge naturally (section 3.2).
//  - GpuDevice: serialized compute device for forward/backward chunks.
//
// All scheduling is deterministic given the order of Schedule() calls; the TaskGraph
// executor (task_graph.h) fixes that order by (ready_time, insertion id).
//
// The per-event schedulers (LinkQueue::ScheduleSerialization, GpuDevice::Schedule,
// CorePool::Schedule, ScheduleStoreAndForward) stay inline in this header on purpose:
// they run once per task inside Execute's event loop — tens of thousands of calls per
// simulated iteration, thousands of iterations per partition search — and out-of-lining
// them costs a measurable fraction of the loop (docs/perf.md). Everything cold
// (constructors, validation, factories, accounting) lives in cluster.cc.
#ifndef PARALLAX_SRC_SIM_CLUSTER_H_
#define PARALLAX_SRC_SIM_CLUSTER_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/base/logging.h"

namespace parallax {

using SimTime = double;  // seconds of virtual time

// FIFO byte server with fixed bandwidth and propagation latency.
class LinkQueue {
 public:
  LinkQueue(double bandwidth_bytes_per_sec, double latency_sec);

  // Returns the serialization-complete time for a transfer that becomes ready at `ready`.
  // (Propagation latency is added by the caller once per hop, not per link end.)
  SimTime ScheduleSerialization(SimTime ready, int64_t bytes) {
    SimTime start = ready > busy_until_ ? ready : busy_until_;
    busy_until_ = start + static_cast<double>(bytes) / bandwidth_;
    total_bytes_ += bytes;
    return busy_until_;
  }

  // Earliest time the link is free at or after `ready`.
  SimTime FreeAt(SimTime ready) const { return ready > busy_until_ ? ready : busy_until_; }

  double latency() const { return latency_; }
  double bandwidth() const { return bandwidth_; }
  int64_t total_bytes() const { return total_bytes_; }
  SimTime busy_until() const { return busy_until_; }

  void ResetAccounting() { total_bytes_ = 0; }

 private:
  double bandwidth_;
  double latency_;
  SimTime busy_until_ = 0.0;
  int64_t total_bytes_ = 0;
};

// One store-and-forward hop: the payload serializes through the sender's out-link, then
// through the receiver's in-link, each a FIFO byte queue; the two queues are decoupled
// (no mutual reservation), so many-to-many traffic has no artificial convoy stalls while
// incast still queues honestly at the receiver. One propagation latency per hop. This is
// the single transfer-time rule behind both the NIC and PCIe paths of the task-graph
// executor and therefore behind every collective schedule in comm/collectives.cc.
inline SimTime ScheduleStoreAndForward(LinkQueue& out, LinkQueue& in, SimTime ready,
                                       int64_t bytes) {
  SimTime out_done = out.ScheduleSerialization(ready, bytes);
  SimTime in_done = in.ScheduleSerialization(out_done, bytes);
  return in_done + out.latency();
}

// k-server queue for CPU work. Each work item runs on one core.
class CorePool {
 public:
  explicit CorePool(int num_cores);

  // Earliest-free core, lowest index among ties. The min-heap of (free time, core
  // index) pairs picks exactly the core the seed's linear scan picked — lexicographic
  // minimum — in O(log k) instead of O(k), which matters with thousands of CPU work
  // items per simulated iteration on 36-core machines. The scheduled core goes straight
  // back with its new free time, so one sift-down replaces a pop/push pair.
  SimTime Schedule(SimTime ready, double duration) {
    std::pair<SimTime, int> slot = cores_.front();
    SimTime start = ready > slot.first ? ready : slot.first;
    slot.first = start + duration;
    total_busy_ += duration;
    const size_t n = cores_.size();
    size_t i = 0;
    for (;;) {
      size_t left = 2 * i + 1;
      if (left >= n) {
        break;
      }
      size_t smallest = left;
      size_t right = left + 1;
      if (right < n && cores_[right] < cores_[left]) {
        smallest = right;
      }
      if (cores_[smallest] >= slot) {
        break;
      }
      cores_[i] = cores_[smallest];
      i = smallest;
    }
    cores_[i] = slot;
    return slot.first;
  }

  int num_cores() const { return static_cast<int>(cores_.size()); }
  double total_busy() const { return total_busy_; }

 private:
  std::vector<std::pair<SimTime, int>> cores_;  // (free at, core index)
  double total_busy_ = 0.0;
};

// Serialized compute device.
class GpuDevice {
 public:
  SimTime Schedule(SimTime ready, double duration) {
    SimTime start = ready > busy_until_ ? ready : busy_until_;
    busy_until_ = start + duration;
    total_busy_ += duration;
    return busy_until_;
  }

  SimTime busy_until() const { return busy_until_; }
  double total_busy() const { return total_busy_; }

 private:
  SimTime busy_until_ = 0.0;
  double total_busy_ = 0.0;
};

// Rack level of the hierarchy: machines are grouped into `num_racks` equal racks, and
// rack-to-rack traffic rides a per-rack spine uplink/downlink pair — typically
// oversubscribed (spine_bandwidth < nic_bandwidth), which is exactly the asymmetry a
// topology-aware collective or placement search exploits. num_racks <= 1 is the flat
// cluster: no spine links exist and every transfer takes the two-level {nic, pcie}
// path unchanged, so a flat TopologySpec is a verified degenerate tree.
struct TopologySpec {
  int num_racks = 1;
  double spine_bandwidth = 6.25e9;     // 2:1 oversubscription vs the paper's NIC
  double spine_latency = 10e-6;        // two extra switch hops

  bool flat() const { return num_racks <= 1; }

  bool operator==(const TopologySpec& other) const = default;
};

// Static description of the simulated cluster. Defaults model the paper's testbed.
struct ClusterSpec {
  int num_machines = 8;
  int gpus_per_machine = 6;
  int cores_per_machine = 36;          // 2x 18-core Xeon E5-2695
  double nic_bandwidth = 12.5e9;       // 100 Gbps InfiniBand, bytes/sec per direction
  double nic_latency = 5e-6;           // 5 us
  double pcie_bandwidth = 12.0e9;      // intra-machine GPU<->host, bytes/sec
  double pcie_latency = 2e-6;          // 2 us
  TopologySpec topology;               // flat by default (one rack, no spine)

  int total_gpus() const { return num_machines * gpus_per_machine; }

  static ClusterSpec Paper() { return ClusterSpec{}; }
  // n machines with one GPU each: the 1-worker-per-machine setting of the paper's
  // section 3.1 analysis (used to validate Table 3's closed forms).
  static ClusterSpec SingleGpuMachines(int n);

  bool operator==(const ClusterSpec& other) const = default;
};

// Read-only view of the level structure of a ClusterSpec: which rack a machine lives
// in and what the bottleneck bandwidth of a machine-to-machine path is. Pure
// arithmetic over the spec — cheap to construct anywhere a placement or migration
// decision needs topology awareness (cost model, runner) without a live Cluster.
class Topology {
 public:
  explicit Topology(const ClusterSpec& spec)
      : num_machines_(spec.num_machines),
        num_racks_(spec.topology.flat() ? 1 : spec.topology.num_racks),
        machines_per_rack_(num_machines_ / num_racks_),
        nic_bandwidth_(spec.nic_bandwidth),
        spine_bandwidth_(spec.topology.spine_bandwidth) {
    PX_CHECK_GT(num_machines_, 0);
    PX_CHECK_EQ(num_machines_ % num_racks_, 0)
        << "racks must partition the machines evenly";
  }

  bool flat() const { return num_racks_ <= 1; }
  int num_racks() const { return num_racks_; }
  int machines_per_rack() const { return machines_per_rack_; }
  int RackOfMachine(int m) const { return m / machines_per_rack_; }

  // Bottleneck bandwidth of the src -> dst path: the NIC within a rack, the weaker of
  // NIC and spine across racks. Same-machine traffic never touches the fabric.
  double PathBandwidth(int src, int dst) const {
    if (src == dst) {
      return std::numeric_limits<double>::infinity();
    }
    if (RackOfMachine(src) == RackOfMachine(dst)) {
      return nic_bandwidth_;
    }
    return std::min(nic_bandwidth_, spine_bandwidth_);
  }

 private:
  int num_machines_;
  int num_racks_;
  int machines_per_rack_;
  double nic_bandwidth_;
  double spine_bandwidth_;
};

// Global rank <-> (machine, local gpu) mapping. Ranks are laid out machine-major, which
// is also how ring orders group ranks so rings cross each NIC exactly once per direction.
struct RankLayout {
  int num_machines = 0;
  int gpus_per_machine = 0;

  int num_ranks() const { return num_machines * gpus_per_machine; }
  int MachineOfRank(int rank) const { return rank / gpus_per_machine; }
  int LocalGpuOfRank(int rank) const { return rank % gpus_per_machine; }
  int RankOf(int machine, int local_gpu) const { return machine * gpus_per_machine + local_gpu; }
};

// Per-machine mutable resources.
struct MachineSim {
  explicit MachineSim(const ClusterSpec& spec);

  LinkQueue nic_in;
  LinkQueue nic_out;
  LinkQueue pcie_in;
  LinkQueue pcie_out;
  CorePool cores;
  std::vector<GpuDevice> gpus;
};

// The live cluster: resource state plus byte accounting.
class Cluster {
 public:
  explicit Cluster(const ClusterSpec& spec);

  const ClusterSpec& spec() const { return spec_; }
  RankLayout layout() const { return RankLayout{spec_.num_machines, spec_.gpus_per_machine}; }

  MachineSim& machine(int m) {
    PX_CHECK_GE(m, 0);
    PX_CHECK_LT(m, static_cast<int>(machines_.size()));
    return machines_[static_cast<size_t>(m)];
  }
  const MachineSim& machine(int m) const {
    PX_CHECK_GE(m, 0);
    PX_CHECK_LT(m, static_cast<int>(machines_.size()));
    return machines_[static_cast<size_t>(m)];
  }
  int num_machines() const { return spec_.num_machines; }
  const Topology& topology() const { return topology_; }

  // Routes one machine-to-machine transfer through the topology. Same-rack traffic
  // (which is ALL traffic on a flat cluster — rack_of_ is empty then) takes exactly
  // the historical two-queue store-and-forward path, so flat clusters are bit-identical
  // to the pre-topology model. Cross-rack traffic additionally serializes through the
  // source rack's spine uplink and the destination rack's spine downlink, with one
  // propagation latency per leg (machine->switch, switch->switch, switch->machine):
  // 2*nic_latency + spine_latency in total. Inline for the same reason as the
  // schedulers above: one call per transfer task inside Execute's event loop.
  SimTime ScheduleTransfer(int src, int dst, SimTime ready, int64_t bytes) {
    MachineSim& s = machine(src);
    MachineSim& d = machine(dst);
    if (rack_of_.empty() ||
        rack_of_[static_cast<size_t>(src)] == rack_of_[static_cast<size_t>(dst)]) {
      return ScheduleStoreAndForward(s.nic_out, d.nic_in, ready, bytes);
    }
    LinkQueue& up = spine_up_[static_cast<size_t>(rack_of_[static_cast<size_t>(src)])];
    LinkQueue& down = spine_down_[static_cast<size_t>(rack_of_[static_cast<size_t>(dst)])];
    SimTime t = s.nic_out.ScheduleSerialization(ready, bytes);
    t = up.ScheduleSerialization(t, bytes);
    t = down.ScheduleSerialization(t, bytes);
    t = d.nic_in.ScheduleSerialization(t, bytes);
    return t + s.nic_out.latency() + up.latency() + d.nic_in.latency();
  }

  // Total NIC bytes (in + out) that crossed machine m's network interface.
  int64_t NicBytes(int m) const;
  // Total bytes (up + down) that crossed rack r's spine links (0 on flat clusters).
  int64_t SpineBytes(int r) const;
  void ResetByteAccounting();

 private:
  ClusterSpec spec_;
  Topology topology_;
  std::vector<MachineSim> machines_;
  // Rack structure; all three empty on flat clusters so the hot path above stays a
  // single branch away from the historical code.
  std::vector<int> rack_of_;
  std::vector<LinkQueue> spine_up_;
  std::vector<LinkQueue> spine_down_;
};

}  // namespace parallax

#endif  // PARALLAX_SRC_SIM_CLUSTER_H_
