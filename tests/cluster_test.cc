// The first-class cluster layer (src/cluster/): node registration (dense
// worker ids, ingress id range, DPU roles) and the AllocateCore
// over-subscription instrumentation.

#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/core/experiments.h"

namespace nadino {
namespace {

ClusterConfig SmallConfig(int workers, bool ingress) {
  ClusterConfig config;
  config.worker_nodes = workers;
  config.with_ingress_node = ingress;
  return config;
}

TEST(ClusterTest, RegistersWorkersAndIngressWithRolesAndIds) {
  CostModel cost = CostModel::Default();
  Cluster cluster(&cost, SmallConfig(3, true));
  EXPECT_EQ(cluster.worker_count(), 3);
  EXPECT_EQ(cluster.worker(0)->id(), 1u);
  EXPECT_EQ(cluster.worker(2)->id(), 3u);
  EXPECT_EQ(cluster.ingress()->id(), kIngressNodeId);
  EXPECT_NE(cluster.worker(0)->dpu(), nullptr);
  EXPECT_EQ(cluster.ingress()->dpu(), nullptr) << "the ingress node has plain RNICs";

  // Scale-out takes the next dense worker id.
  Node* added = cluster.AddWorkerNode(Node::Config{});
  EXPECT_EQ(added->id(), 4u);
  EXPECT_EQ(cluster.worker_count(), 4);
  EXPECT_EQ(cluster.worker(3), added);
}

TEST(ClusterTest, AllocateCoreWrapRecordsOversubscription) {
  CostModel cost = CostModel::Default();
  ClusterConfig config = SmallConfig(1, false);
  config.host_cores_per_node = 2;
  Cluster cluster(&cost, config);
  Node* node = cluster.worker(0);

  FifoResource* first = node->AllocateCore();
  FifoResource* second = node->AllocateCore();
  EXPECT_NE(first, second);
  EXPECT_EQ(node->allocated_cores(), 2);
  EXPECT_EQ(cluster.metrics().ValueOf("node_core_oversubscribed", MetricLabels::Node(1)), 0u);

  // The wrap: allocation 3 of 2 shares a core with allocation 1.
  FifoResource* third = node->AllocateCore();
  EXPECT_EQ(third, first);
  EXPECT_EQ(node->allocated_cores(), 3);
  EXPECT_EQ(cluster.metrics().ValueOf("node_core_oversubscribed", MetricLabels::Node(1)), 1u);
  node->AllocateCore();
  EXPECT_EQ(cluster.metrics().ValueOf("node_core_oversubscribed", MetricLabels::Node(1)), 2u);
}

}  // namespace
}  // namespace nadino
