// The PR's acceptance chaos run: a worker node is severed mid-run via the
// node_partition fault site while chain invocations stream through it. The
// seeded HealthMonitor detects the partition (suspect -> dead), the routing
// epoch moves, and the executor's retry path re-places in-flight calls onto
// the surviving replica while new invocations land only on survivors. When
// the window heals, heartbeats restore the node within one period. Every
// in-flight chain terminates — failover, response, or budget-exhausted
// error — never hangs; equal seeds reproduce the whole faulted run
// byte-identically.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/experiments.h"
#include "src/core/slo.h"
#include "src/runtime/chain.h"
#include "src/runtime/message_header.h"

namespace nadino {
namespace {

constexpr TenantId kTenant = 1;
constexpr FunctionId kClientFn = 99;
constexpr FunctionId kEntryFn = 100;
constexpr FunctionId kLeafFn = 101;
constexpr NodeId kVictim = 2;      // Leaf primary; severed mid-run.
constexpr NodeId kSurvivor = 3;    // Leaf replica.
constexpr SimTime kSeverAt = 5 * kMillisecond;
constexpr SimTime kHealAt = 25 * kMillisecond;

struct ChaosOutcome {
  int requests = 0;
  int completed = 0;
  uint64_t executor_errors = 0;
  size_t pending_calls = 0;
  size_t open_fanouts = 0;
  uint64_t failover_attempts = 0;
  uint64_t failover_recovered = 0;
  uint64_t partition_injections = 0;
  uint64_t victim_msgs_while_dead = 0;
  uint64_t survivor_msgs = 0;
  NodeHealth victim_mid_window = NodeHealth::kAlive;
  NodeId route_mid_window = kInvalidNode;
  NodeHealth victim_after_heal = NodeHealth::kDead;
  NodeId route_after_heal = kInvalidNode;
  bool buffers_conserved = true;
  std::string metrics_text;
};

ChaosOutcome RunPartitionChaos(uint64_t seed) {
  CostModel cost = CostModel::Default();
  ClusterConfig config;
  config.worker_nodes = 3;
  config.with_ingress_node = true;  // Monitor probes from the ingress node.
  config.seed = seed;
  Cluster cluster(&cost, config);
  cluster.CreateTenantPools(kTenant, 2048, 8192);

  SloTarget target;
  target.min_budget_per_window = 256;  // Generous: failover, not budget, decides.
  cluster.env().slos().Register(kTenant, target);
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.timeout = 2 * kMillisecond;
  cluster.env().slos().SetRetryPolicy(kTenant, policy);

  NadinoDataPlane dp(cluster.env(), &cluster.routing(), {});
  for (int i = 0; i < config.worker_nodes; ++i) {
    dp.AddWorkerNode(cluster.worker(i));
  }
  dp.AttachTenant(kTenant, 1);
  dp.Start();

  ChainSpec spec;
  spec.id = 1;
  spec.tenant = kTenant;
  spec.entry = kEntryFn;
  FunctionBehavior entry;
  entry.compute = 5 * kMicrosecond;
  entry.calls.push_back(CallSpec{kLeafFn, 512});
  spec.behaviors[kEntryFn] = entry;
  FunctionBehavior leaf;
  leaf.compute = 5 * kMicrosecond;
  spec.behaviors[kLeafFn] = leaf;

  ChainExecutor executor(cluster.env(), &dp);
  executor.RegisterChain(spec);

  std::vector<std::unique_ptr<FunctionRuntime>> functions;
  auto add_fn = [&](FunctionId id, int worker) -> FunctionRuntime* {
    Node* node = cluster.worker(worker);
    functions.push_back(std::make_unique<FunctionRuntime>(
        id, kTenant, "fn" + std::to_string(id) + "@" + std::to_string(node->id()), node,
        node->AllocateCore(), node->tenants().PoolOfTenant(kTenant)));
    dp.RegisterFunction(functions.back().get());
    executor.AttachFunction(functions.back().get());
    return functions.back().get();
  };
  add_fn(kEntryFn, 0);
  FunctionRuntime* leaf_primary = add_fn(kLeafFn, 1);   // node 2
  FunctionRuntime* leaf_replica = add_fn(kLeafFn, 2);   // node 3

  FunctionRuntime client(kClientFn, kTenant, "client", cluster.worker(0),
                         cluster.worker(0)->AllocateCore(),
                         cluster.worker(0)->tenants().PoolOfTenant(kTenant));
  dp.RegisterFunction(&client);

  ChaosOutcome outcome;
  client.SetHandler([&](FunctionRuntime& fn, Buffer* buffer) {
    const auto header = ReadMessage(*buffer);
    if (header.has_value() && header->is_response()) {
      ++outcome.completed;
    }
    fn.pool()->Put(buffer, fn.owner_id());
  });

  // The tentpole moving parts: sever the victim for [5 ms, 25 ms) and let
  // seeded heartbeats — not the test — drive membership.
  EXPECT_GE(cluster.SeverNode(kVictim, kSeverAt, kHealAt), 0) << "install failed";
  cluster.StartHealthMonitor();

  std::vector<size_t> baseline_in_use;
  for (int i = 0; i < config.worker_nodes; ++i) {
    baseline_in_use.push_back(cluster.worker(i)->tenants().PoolOfTenant(kTenant)->in_use());
  }

  // Closed-loop-ish open stream: one invocation every 500 us through the
  // sever, the outage, the heal, and the recovered steady state.
  outcome.requests = 60;
  for (int i = 0; i < outcome.requests; ++i) {
    cluster.sim().Schedule(static_cast<SimDuration>(i) * 500 * kMicrosecond, [&]() {
      Buffer* request = client.pool()->Get(client.owner_id());
      ASSERT_NE(request, nullptr);
      MessageHeader header;
      header.chain = 1;
      header.src = kClientFn;
      header.dst = kEntryFn;
      header.payload_length = 256;
      header.request_id = executor.NextRequestId();
      WriteMessage(request, header);
      if (!dp.Send(&client, request)) {
        client.pool()->Put(request, client.owner_id());
      }
    });
  }

  // Mid-window observation: after detection latency (dead_after periods plus
  // a probe timeout), the victim is dead, new invocations resolve only to
  // the survivor, and anything the victim still receives is zero.
  const SimTime observe_at =
      kSeverAt + 3 * HealthMonitor::kPeriod + 2 * HealthMonitor::kProbeTimeout;
  uint64_t victim_msgs_at_death = 0;
  cluster.sim().ScheduleAt(observe_at, [&]() {
    outcome.victim_mid_window = cluster.membership().HealthOf(kVictim);
    outcome.route_mid_window = cluster.routing().NodeOf(kLeafFn);
    victim_msgs_at_death = leaf_primary->messages_received();
  });
  cluster.sim().ScheduleAt(kHealAt - 1 * kMillisecond, [&]() {
    outcome.victim_msgs_while_dead =
        leaf_primary->messages_received() - victim_msgs_at_death;
  });
  // Healing restores routing within one heartbeat period of the window end.
  const SimTime heal_observe_at = kHealAt + HealthMonitor::kPeriod + HealthMonitor::kProbeTimeout;
  cluster.sim().ScheduleAt(heal_observe_at, [&]() {
    outcome.victim_after_heal = cluster.membership().HealthOf(kVictim);
    outcome.route_after_heal = cluster.routing().NodeOf(kLeafFn);
  });

  cluster.sim().RunFor(100 * kMillisecond);

  const MetricLabels tenant = MetricLabels::Tenant(kTenant);
  outcome.executor_errors = executor.errors();
  outcome.pending_calls = executor.pending_calls();
  outcome.open_fanouts = executor.open_fanouts();
  outcome.failover_attempts = cluster.metrics().ValueOf("cluster_failover_attempts", tenant);
  outcome.failover_recovered = cluster.metrics().ValueOf("cluster_failover_recovered", tenant);
  outcome.partition_injections =
      cluster.env().faults().injected_at(FaultSite::kNodePartition);
  outcome.survivor_msgs = leaf_replica->messages_received();
  for (int i = 0; i < config.worker_nodes; ++i) {
    BufferPool* pool = cluster.worker(i)->tenants().PoolOfTenant(kTenant);
    if (pool->in_use() != baseline_in_use[static_cast<size_t>(i)]) {
      outcome.buffers_conserved = false;
    }
  }
  outcome.metrics_text = cluster.metrics().SnapshotText();
  return outcome;
}

TEST(ClusterPartitionChaosTest, SeveredWorkerFailsOverAndHealsWithoutHangs) {
  const ChaosOutcome outcome = RunPartitionChaos(kDefaultSeed);

  // The partition actually bit: fabric crossings were dropped on both
  // endpoints of the victim.
  EXPECT_GT(outcome.partition_injections, 0u);

  // Detection: heartbeats marked the victim dead and routing moved to the
  // survivor — new invocations land only on survivors.
  EXPECT_EQ(outcome.victim_mid_window, NodeHealth::kDead);
  EXPECT_EQ(outcome.route_mid_window, kSurvivor);
  EXPECT_EQ(outcome.victim_msgs_while_dead, 0u)
      << "no new invocation may target the dead node";
  EXPECT_GT(outcome.survivor_msgs, 0u);

  // Failover: in-flight calls re-placed and recovered.
  EXPECT_GT(outcome.failover_attempts, 0u);
  EXPECT_GT(outcome.failover_recovered, 0u);
  EXPECT_LE(outcome.failover_recovered, outcome.failover_attempts);

  // Termination: every chain invocation resolved — completed or counted as a
  // terminal error — and nothing is left pending ("never hung").
  EXPECT_EQ(outcome.pending_calls, 0u);
  EXPECT_EQ(outcome.open_fanouts, 0u);
  EXPECT_EQ(static_cast<uint64_t>(outcome.completed) + outcome.executor_errors,
            static_cast<uint64_t>(outcome.requests));
  EXPECT_GT(outcome.completed, outcome.requests / 2);
  EXPECT_TRUE(outcome.buffers_conserved) << "partition drops must not leak buffers";

  // Healing: within one heartbeat period of the window end the victim is
  // alive and primary routing is restored.
  EXPECT_EQ(outcome.victim_after_heal, NodeHealth::kAlive);
  EXPECT_EQ(outcome.route_after_heal, kVictim);
}

TEST(ClusterPartitionChaosTest, EqualSeedsReproduceTheFaultedRunByteIdentically) {
  const ChaosOutcome a = RunPartitionChaos(kDefaultSeed);
  const ChaosOutcome b = RunPartitionChaos(kDefaultSeed);
  EXPECT_GT(a.failover_attempts, 0u);
  EXPECT_EQ(a.metrics_text, b.metrics_text);
  const ChaosOutcome c = RunPartitionChaos(kDefaultSeed + 1);
  EXPECT_EQ(c.pending_calls, 0u) << "termination holds across seeds";
}

}  // namespace
}  // namespace nadino
