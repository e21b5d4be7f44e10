// The hierarchical machine model: Topology's level arithmetic, the flat cluster as a
// verified degenerate two-level tree (ScheduleTransfer == ScheduleStoreAndForward,
// bit for bit), cross-rack transfers serializing through oversubscribed spine links,
// spine byte accounting, and the single shard-ownership rule (ResolveShardServers)
// that keeps round-robin assignments stable when one variable is placed.
#include <gtest/gtest.h>

#include <limits>

#include "src/core/iteration_sim.h"
#include "src/sim/cluster.h"

namespace parallax {
namespace {

ClusterSpec RackedSpec(int machines, int racks) {
  ClusterSpec spec;
  spec.num_machines = machines;
  spec.gpus_per_machine = 2;
  spec.cores_per_machine = 4;
  spec.nic_bandwidth = 1e9;
  spec.nic_latency = 1e-6;
  spec.pcie_bandwidth = 4e9;
  spec.pcie_latency = 1e-6;
  spec.topology.num_racks = racks;
  spec.topology.spine_bandwidth = 5e8;  // 2:1 oversubscribed vs the NIC
  spec.topology.spine_latency = 5e-6;
  return spec;
}

TEST(TopologyTest, LevelArithmetic) {
  Topology topology(RackedSpec(6, 3));
  EXPECT_FALSE(topology.flat());
  EXPECT_EQ(topology.num_racks(), 3);
  EXPECT_EQ(topology.machines_per_rack(), 2);
  EXPECT_EQ(topology.RackOfMachine(0), 0);
  EXPECT_EQ(topology.RackOfMachine(1), 0);
  EXPECT_EQ(topology.RackOfMachine(2), 1);
  EXPECT_EQ(topology.RackOfMachine(5), 2);
}

TEST(TopologyTest, PathBandwidthPicksTheBottleneckLevel) {
  ClusterSpec spec = RackedSpec(4, 2);
  Topology topology(spec);
  EXPECT_EQ(topology.PathBandwidth(1, 1), std::numeric_limits<double>::infinity());
  EXPECT_EQ(topology.PathBandwidth(0, 1), spec.nic_bandwidth);        // same rack
  EXPECT_EQ(topology.PathBandwidth(0, 2), spec.topology.spine_bandwidth);  // cross rack
  EXPECT_EQ(topology.PathBandwidth(3, 0), spec.topology.spine_bandwidth);

  // A fast spine never makes a path faster than the NICs at its ends.
  spec.topology.spine_bandwidth = 4e9;
  Topology fast_spine(spec);
  EXPECT_EQ(fast_spine.PathBandwidth(0, 2), spec.nic_bandwidth);
}

TEST(TopologyTest, FlatSpecIsDegenerateTree) {
  ClusterSpec spec = RackedSpec(4, 1);
  Topology topology(spec);
  EXPECT_TRUE(topology.flat());
  EXPECT_EQ(topology.machines_per_rack(), 4);
  EXPECT_EQ(topology.RackOfMachine(3), 0);
  EXPECT_EQ(topology.PathBandwidth(0, 3), spec.nic_bandwidth);
}

TEST(TopologyTest, FlatScheduleTransferMatchesStoreAndForwardExactly) {
  // On a flat cluster the topology route must be the historical two-queue path, bit
  // for bit, including under queueing from earlier traffic.
  ClusterSpec spec = RackedSpec(4, 1);
  Cluster routed(spec);
  Cluster manual(spec);
  const int64_t bytes[] = {1'000'000, 250'000, 4'096, 1'000'000};
  SimTime ready = 0.0;
  for (int i = 0; i < 4; ++i) {
    int src = i % 2;
    int dst = 2 + i % 2;
    SimTime a = routed.ScheduleTransfer(src, dst, ready, bytes[i]);
    SimTime b = ScheduleStoreAndForward(manual.machine(src).nic_out,
                                        manual.machine(dst).nic_in, ready, bytes[i]);
    EXPECT_EQ(a, b) << "transfer " << i;
    ready = a * 0.5;  // overlap the next transfer with the queue still busy
  }
  EXPECT_EQ(routed.SpineBytes(0), 0);
}

TEST(TopologyTest, CrossRackTransferSerializesThroughTheSpine) {
  ClusterSpec spec = RackedSpec(4, 2);
  Cluster cluster(spec);
  const int64_t bytes = 1'000'000;
  // Intra-rack: NIC out + NIC in + one propagation latency.
  SimTime intra = cluster.ScheduleTransfer(0, 1, 0.0, bytes);
  double nic_leg = static_cast<double>(bytes) / spec.nic_bandwidth;
  double spine_leg = static_cast<double>(bytes) / spec.topology.spine_bandwidth;
  EXPECT_DOUBLE_EQ(intra, 2 * nic_leg + spec.nic_latency);
  // Cross-rack from idle machines: NIC out, spine up, spine down, NIC in, with one
  // latency per leg (machine->switch, switch->switch, switch->machine).
  SimTime cross = cluster.ScheduleTransfer(2, 0, 0.0, bytes);
  EXPECT_DOUBLE_EQ(cross, 2 * nic_leg + 2 * spine_leg +
                              2 * spec.nic_latency + spec.topology.spine_latency);
  EXPECT_GT(cross, intra);
  // Byte accounting: the cross-rack payload crossed both racks' spines once.
  EXPECT_EQ(cluster.SpineBytes(0), bytes);
  EXPECT_EQ(cluster.SpineBytes(1), bytes);
  cluster.ResetByteAccounting();
  EXPECT_EQ(cluster.SpineBytes(0), 0);
  EXPECT_EQ(cluster.SpineBytes(1), 0);
}

TEST(TopologyTest, ConcurrentCrossRackTransfersQueueAtTheSharedSpine) {
  // Two same-direction cross-rack transfers from different senders contend on the
  // source rack's single spine uplink, so the second finishes a full spine leg later
  // than it would alone.
  ClusterSpec spec = RackedSpec(4, 2);
  Cluster contended(spec);
  Cluster alone(spec);
  const int64_t bytes = 1'000'000;
  contended.ScheduleTransfer(0, 2, 0.0, bytes);
  SimTime second = contended.ScheduleTransfer(1, 3, 0.0, bytes);
  SimTime solo = alone.ScheduleTransfer(1, 3, 0.0, bytes);
  double spine_leg = static_cast<double>(bytes) / spec.topology.spine_bandwidth;
  EXPECT_DOUBLE_EQ(second, solo + spine_leg);
}

std::vector<VariableSync> ThreePsVariables() {
  std::vector<VariableSync> vars(3);
  vars[0].spec = {"a", 1'000'000, 64, true, 0.1};
  vars[0].method = SyncMethod::kPs;
  vars[0].partitions = 3;
  vars[1].spec = {"b", 500'000, 1, false, 1.0};
  vars[1].method = SyncMethod::kArAllReduce;  // not a PS shard: owns no server
  vars[2].spec = {"c", 800'000, 64, true, 0.2};
  vars[2].method = SyncMethod::kPs;
  vars[2].partitions = 2;
  return vars;
}

TEST(ResolveShardServersTest, RoundRobinSkipsNonPsAndWrapsMachines) {
  std::vector<int> servers = ResolveShardServers(ThreePsVariables(), 4);
  EXPECT_EQ(servers, (std::vector<int>{0, 1, 2, 3, 0}));
}

TEST(ResolveShardServersTest, PlacingOneVariableNeverShiftsItsNeighbors) {
  std::vector<VariableSync> vars = ThreePsVariables();
  vars[0].placement = {3, 3, 0};  // pin a's shards; rr counter still advances past them
  std::vector<int> servers = ResolveShardServers(vars, 4);
  EXPECT_EQ(servers, (std::vector<int>{3, 3, 0, 3, 0}));
}

TEST(ResolveShardServersTest, LengthMismatchedPlacementFallsBackToRoundRobin) {
  std::vector<VariableSync> vars = ThreePsVariables();
  vars[2].placement = {1};  // stale vector from before a re-split: ignored
  std::vector<int> servers = ResolveShardServers(vars, 4);
  EXPECT_EQ(servers, (std::vector<int>{0, 1, 2, 3, 0}));
}

}  // namespace
}  // namespace parallax
