// The first-class cluster layer (src/cluster/): membership roster and health
// transitions, the membership-epoch == routing-epoch contract, node
// registration (dense worker ids, ingress id range), SeverNode's partition
// spec, the opt-in health monitor, and the AllocateCore over-subscription
// instrumentation.

#include <gtest/gtest.h>

#include <vector>

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

  Membership& members = cluster.membership();
  EXPECT_EQ(members.size(), 4u);
  EXPECT_EQ(members.RoleOf(1), NodeRole::kWorker);
  EXPECT_EQ(members.RoleOf(kIngressNodeId), NodeRole::kIngress);
  EXPECT_EQ(members.HealthOf(2), NodeHealth::kAlive);
  EXPECT_EQ(members.LiveWorkers(), (std::vector<NodeId>{1, 2, 3}));

  // Scale-out takes the next dense worker id and joins alive.
  Node* added = cluster.AddWorkerNode(Node::Config{});
  EXPECT_EQ(added->id(), 4u);
  EXPECT_EQ(members.RoleOf(4), NodeRole::kWorker);
  EXPECT_EQ(members.LiveWorkers().size(), 4u);
}

TEST(ClusterTest, HealthTransitionsDriveRoutingEpochAndLiveness) {
  CostModel cost = CostModel::Default();
  Cluster cluster(&cost, SmallConfig(2, false));
  Membership& members = cluster.membership();
  RoutingTable& routing = cluster.routing();
  const uint64_t epoch0 = members.epoch();
  EXPECT_EQ(epoch0, routing.epoch()) << "one version number for membership and routing";

  // Suspect: still routable, but the epoch moves so cached lookups retire.
  members.MarkSuspect(2);
  EXPECT_EQ(members.HealthOf(2), NodeHealth::kSuspect);
  EXPECT_TRUE(routing.NodeLive(2));
  EXPECT_GT(members.epoch(), epoch0);

  const uint64_t epoch1 = members.epoch();
  members.MarkDead(2);
  EXPECT_EQ(members.HealthOf(2), NodeHealth::kDead);
  EXPECT_FALSE(routing.NodeLive(2));
  EXPECT_GT(members.epoch(), epoch1);
  EXPECT_EQ(members.LiveWorkers(), (std::vector<NodeId>{1}));

  members.MarkAlive(2);
  EXPECT_EQ(members.HealthOf(2), NodeHealth::kAlive);
  EXPECT_TRUE(routing.NodeLive(2));

  // Transitions surfaced in the registry (created lazily on the first one).
  EXPECT_EQ(cluster.metrics().ValueOf("cluster_membership_transitions"), 3u);
}

TEST(ClusterTest, MembershipObserversSeeCommittedTransitions) {
  CostModel cost = CostModel::Default();
  Cluster cluster(&cost, SmallConfig(2, false));
  std::vector<NodeHealth> seen;
  uint64_t observed_epoch = 0;
  cluster.membership().Subscribe([&](NodeId node, NodeHealth health, uint64_t epoch) {
    EXPECT_EQ(node, 1u);
    seen.push_back(health);
    observed_epoch = epoch;
  });
  cluster.membership().MarkSuspect(1);
  cluster.membership().MarkDead(1);
  EXPECT_EQ(seen, (std::vector<NodeHealth>{NodeHealth::kSuspect, NodeHealth::kDead}));
  EXPECT_EQ(observed_epoch, cluster.routing().epoch()) << "observer fires post-commit";
}

TEST(ClusterTest, SteadyStateClusterCreatesNoClusterInstruments) {
  // Golden-preservation: a cluster that never transitions or starts the
  // monitor must not mint cluster_* instruments (bench snapshots unchanged).
  CostModel cost = CostModel::Default();
  Cluster cluster(&cost, SmallConfig(2, true));
  cluster.sim().RunFor(10 * kMillisecond);
  const std::string snapshot = cluster.metrics().SnapshotText();
  EXPECT_EQ(snapshot.find("cluster_"), std::string::npos) << snapshot;
}

TEST(ClusterTest, SeverNodeInstallsDeterministicPartitionWindow) {
  CostModel cost = CostModel::Default();
  Cluster cluster(&cost, SmallConfig(2, false));
  ASSERT_GE(cluster.SeverNode(2, 1 * kMillisecond, 2 * kMillisecond), 0);
  // Whether a crossing from `node` toward an unknown peer is dropped.
  auto partitioned = [&cluster](NodeId node) {
    return cluster.env()
               .faults()
               .InterceptPair(FaultSite::kFabric, FaultScope{kInvalidTenant, node}, kInvalidNode)
               .action == FaultAction::kDrop;
  };
  EXPECT_FALSE(partitioned(2));
  cluster.sim().RunFor(1 * kMillisecond + 1);
  EXPECT_TRUE(partitioned(2));
  EXPECT_FALSE(partitioned(1));
  cluster.sim().RunFor(1 * kMillisecond);
  EXPECT_FALSE(partitioned(2));
}

TEST(ClusterTest, HealthMonitorMarksPartitionedNodeDeadAndHealsIt) {
  CostModel cost = CostModel::Default();
  Cluster cluster(&cost, SmallConfig(3, true));
  cluster.StartHealthMonitor();  // 2 ms period, dead after 2 misses.
  ASSERT_TRUE(cluster.health()->started());

  const SimTime sever_at = 5 * kMillisecond;
  const SimTime heal_at = 15 * kMillisecond;
  ASSERT_GE(cluster.SeverNode(2, sever_at, heal_at), 0);

  // Unpartitioned warmup: everybody stays alive.
  cluster.sim().RunFor(sever_at);
  EXPECT_EQ(cluster.membership().HealthOf(2), NodeHealth::kAlive);

  // Within dead_after(2) periods + probe timeout the partition is detected.
  cluster.sim().RunFor(3 * HealthMonitor::kPeriod + HealthMonitor::kProbeTimeout);
  EXPECT_EQ(cluster.membership().HealthOf(2), NodeHealth::kDead);
  EXPECT_FALSE(cluster.routing().NodeLive(2));
  EXPECT_GT(cluster.health()->probes_missed(), 0u);

  // Healing restores routing within one heartbeat period (ISSUE acceptance).
  cluster.sim().RunFor(heal_at - cluster.sim().now());
  cluster.sim().RunFor(HealthMonitor::kPeriod + HealthMonitor::kProbeTimeout);
  EXPECT_EQ(cluster.membership().HealthOf(2), NodeHealth::kAlive);
  EXPECT_TRUE(cluster.routing().NodeLive(2));
  EXPECT_GT(cluster.metrics().ValueOf("cluster_heartbeat_misses"), 0u);
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
