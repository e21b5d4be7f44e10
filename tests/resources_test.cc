#include <gtest/gtest.h>

#include "src/core/resources.h"

namespace parallax {
namespace {

TEST(ResourcesTest, ParseWellFormedSpec) {
  auto result = ParseResourceSpec("host-a:0,1,2;host-b:0,1,2");
  ASSERT_TRUE(result.ok());
  const ResourceSpec& spec = result.value();
  EXPECT_EQ(spec.num_machines(), 2);
  EXPECT_EQ(spec.total_gpus(), 6);
  EXPECT_TRUE(spec.IsHomogeneous());
  EXPECT_EQ(spec.machines[0].hostname, "host-a");
  EXPECT_EQ(spec.machines[1].gpu_ids[2], 2);
}

TEST(ResourcesTest, ParseSingleMachine) {
  auto result = ParseResourceSpec("localhost:0");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().total_gpus(), 1);
}

TEST(ResourcesTest, RejectsEmpty) {
  EXPECT_FALSE(ParseResourceSpec("").ok());
}

TEST(ResourcesTest, RejectsMissingColon) {
  EXPECT_FALSE(ParseResourceSpec("hostonly").ok());
}

TEST(ResourcesTest, RejectsEmptyHostname) {
  EXPECT_FALSE(ParseResourceSpec(":0,1").ok());
}

TEST(ResourcesTest, RejectsMalformedGpuId) {
  EXPECT_FALSE(ParseResourceSpec("host:0,x").ok());
}

TEST(ResourcesTest, RejectsNoGpus) {
  EXPECT_FALSE(ParseResourceSpec("host:").ok());
}

TEST(ResourcesTest, RejectsRepeatedGpuId) {
  // One GPU named twice is one device, not a machine with two.
  auto result = ParseResourceSpec("m0:0,0");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResourcesTest, RejectsRepeatedHostname) {
  auto result = ParseResourceSpec("m0:0;m0:0");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResourcesTest, RejectsGpuIdsPastInt) {
  // 2^31 and a 20-digit id: neither fits in int, so neither may wrap to a negative id.
  for (const char* spec : {"m0:2147483648", "m0:99999999999999999999"}) {
    auto result = ParseResourceSpec(spec);
    ASSERT_FALSE(result.ok()) << spec;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << spec;
  }
  auto largest = ParseResourceSpec("m0:2147483647");
  ASSERT_TRUE(largest.ok());
  EXPECT_EQ(largest.value().machines[0].gpu_ids[0], 2147483647);
}

TEST(ResourcesTest, HeterogeneousDetected) {
  auto result = ParseResourceSpec("a:0,1;b:0");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().IsHomogeneous());
}

TEST(ResourcesTest, ToClusterSpecInheritsHardware) {
  ResourceSpec spec = ResourceSpec::Homogeneous(4, 2);
  ClusterSpec base = ClusterSpec::Paper();
  base.nic_bandwidth = 5e9;
  ClusterSpec cluster = spec.ToClusterSpec(base);
  EXPECT_EQ(cluster.num_machines, 4);
  EXPECT_EQ(cluster.gpus_per_machine, 2);
  EXPECT_DOUBLE_EQ(cluster.nic_bandwidth, 5e9);
}

TEST(ResourcesTest, HomogeneousFactory) {
  ResourceSpec spec = ResourceSpec::Homogeneous(8, 6);
  EXPECT_EQ(spec.num_machines(), 8);
  EXPECT_EQ(spec.total_gpus(), 48);
  EXPECT_TRUE(spec.IsHomogeneous());
}

}  // namespace
}  // namespace parallax
