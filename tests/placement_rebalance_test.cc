// Rebalancer chaos test (DESIGN.md §3e): a hot function sharing one host core
// with a victim chain drives the node over the overload threshold; the
// rebalancer migrates the hot function onto its idle replica, the victim's
// latency collapses, and every in-flight chain still terminates. Also checks
// the determinism contract: runs that never enable the subsystem draw nothing
// and keep byte-identical snapshots (covered by the bench goldens); here we
// check equal seeds reproduce the migration timeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/experiments.h"
#include "src/runtime/chain.h"
#include "src/runtime/message_header.h"

namespace nadino {
namespace {

constexpr TenantId kTenant = 1;
constexpr FunctionId kHotFn = 100;        // Placed on nodes 1 and 2.
constexpr FunctionId kVictimEntry = 200;  // Node 1 only.
constexpr FunctionId kVictimLeaf = 201;   // Node 1 only.
constexpr FunctionId kHotClient = 98;     // Node 3.
constexpr FunctionId kVictimClient = 99;  // Node 3.

struct Outcome {
  uint64_t migrations = 0;
  NodeId hot_home = kInvalidNode;
  std::vector<NodeId> hot_placements;
  uint64_t hot_completed = 0;
  uint64_t victim_completed = 0;
  uint64_t executor_errors = 0;
  size_t pending_calls = 0;
  // Victim request latencies bucketed by issue time: before the first
  // rebalance tick vs well after the migration.
  std::vector<SimDuration> victim_pre;
  std::vector<SimDuration> victim_post;
  uint64_t migration_counter = 0;
};

double MeanUs(const std::vector<SimDuration>& samples) {
  if (samples.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (const SimDuration s : samples) {
    total += ToUs(s);
  }
  return total / static_cast<double>(samples.size());
}

double P99Us(std::vector<SimDuration> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  return ToUs(samples[samples.size() * 99 / 100]);
}

Outcome RunRebalanceChaos(uint64_t seed) {
  CostModel cost = CostModel::Default();
  ClusterConfig config;
  config.worker_nodes = 3;
  config.host_cores_per_node = 1;  // Genuine core contention on node 1.
  config.with_ingress_node = false;
  config.seed = seed;
  Cluster cluster(&cost, config);
  cluster.CreateTenantPools(kTenant, 4096, 8192);

  PlacementOptions placement;
  placement.spread = false;  // Isolate the rebalancer: primaries only.
  placement.rebalance = true;
  placement.rebalancer.period = 5 * kMillisecond;
  placement.rebalancer.overload_util = 0.6;
  placement.rebalancer.headroom_util = 0.5;
  cluster.EnablePlacement(placement);

  NadinoDataPlane dp(cluster.env(), &cluster.routing(), {});
  for (int i = 0; i < cluster.worker_count(); ++i) {
    dp.AddWorkerNode(cluster.worker(i));
  }
  dp.AttachTenant(kTenant, 1);
  dp.Start();

  // Hot chain: one 40us stage. Victim chain: two light stages behind the
  // same single host core as the hot primary.
  ChainSpec hot_spec;
  hot_spec.id = 1;
  hot_spec.tenant = kTenant;
  hot_spec.entry = kHotFn;
  FunctionBehavior hot_behavior;
  hot_behavior.compute = 40 * kMicrosecond;
  hot_spec.behaviors[kHotFn] = hot_behavior;

  ChainSpec victim_spec;
  victim_spec.id = 2;
  victim_spec.tenant = kTenant;
  victim_spec.entry = kVictimEntry;
  FunctionBehavior victim_entry;
  victim_entry.compute = 3 * kMicrosecond;
  victim_entry.calls.push_back(CallSpec{kVictimLeaf, 256});
  victim_spec.behaviors[kVictimEntry] = victim_entry;
  FunctionBehavior victim_leaf;
  victim_leaf.compute = 3 * kMicrosecond;
  victim_spec.behaviors[kVictimLeaf] = victim_leaf;

  ChainExecutor executor(cluster.env(), &dp);
  executor.RegisterChain(hot_spec);
  executor.RegisterChain(victim_spec);

  std::vector<std::unique_ptr<FunctionRuntime>> functions;
  auto add_fn = [&](FunctionId id, int worker) {
    Node* node = cluster.worker(worker);
    functions.push_back(std::make_unique<FunctionRuntime>(
        id, kTenant, "fn" + std::to_string(id), node, node->AllocateCore(),
        node->tenants().PoolOfTenant(kTenant)));
    dp.RegisterFunction(functions.back().get());
    executor.AttachFunction(functions.back().get());
    return functions.back().get();
  };
  add_fn(kHotFn, 0);  // Primary on node 1 (the shared, soon-overloaded core).
  add_fn(kHotFn, 1);  // Idle replica on node 2 — the migration target.
  add_fn(kVictimEntry, 0);
  add_fn(kVictimLeaf, 0);

  auto make_client = [&](FunctionId id) {
    Node* node = cluster.worker(2);
    auto client = std::make_unique<FunctionRuntime>(
        id, kTenant, "client" + std::to_string(id), node, node->AllocateCore(),
        node->tenants().PoolOfTenant(kTenant));
    dp.RegisterFunction(client.get());
    return client;
  };
  auto hot_client = make_client(kHotClient);
  auto victim_client = make_client(kVictimClient);

  Outcome outcome;
  std::map<uint64_t, SimTime> victim_issue;
  hot_client->SetHandler([&](FunctionRuntime& fn, Buffer* buffer) {
    const auto header = ReadMessage(*buffer);
    if (header.has_value() && header->is_response()) {
      ++outcome.hot_completed;
    }
    fn.pool()->Put(buffer, fn.owner_id());
  });
  victim_client->SetHandler([&](FunctionRuntime& fn, Buffer* buffer) {
    const auto header = ReadMessage(*buffer);
    if (header.has_value() && header->is_response()) {
      ++outcome.victim_completed;
      const auto it = victim_issue.find(header->request_id);
      if (it != victim_issue.end()) {
        const SimDuration latency = cluster.env().now() - it->second;
        // Pre: issued before the first possible rebalance tick. Post: well
        // after the migration settled.
        if (it->second < 5 * kMillisecond) {
          outcome.victim_pre.push_back(latency);
        } else if (it->second > 60 * kMillisecond) {
          outcome.victim_post.push_back(latency);
        }
        victim_issue.erase(it);
      }
    }
    fn.pool()->Put(buffer, fn.owner_id());
  });

  auto send = [&](FunctionRuntime* client, ChainId chain, FunctionId dst,
                  bool track_issue) {
    Buffer* request = client->pool()->Get(client->owner_id());
    ASSERT_NE(request, nullptr);
    MessageHeader header;
    header.chain = chain;
    header.src = client->id();
    header.dst = dst;
    header.payload_length = 256;
    header.request_id = executor.NextRequestId();
    WriteMessage(request, header);
    if (track_issue) {
      victim_issue[header.request_id] = cluster.env().now();
    }
    if (!dp.Send(client, request)) {
      client->pool()->Put(request, client->owner_id());
    }
  };

  constexpr SimTime kSendWindow = 100 * kMillisecond;
  for (SimTime at = 0; at < kSendWindow; at += 50 * kMicrosecond) {
    cluster.sim().ScheduleAt(at + 1, [&] { send(hot_client.get(), 1, kHotFn, false); });
  }
  for (SimTime at = 0; at < kSendWindow; at += 200 * kMicrosecond) {
    cluster.sim().ScheduleAt(at + 3,
                             [&] { send(victim_client.get(), 2, kVictimEntry, true); });
  }

  cluster.sim().RunFor(150 * kMillisecond);

  outcome.migrations = cluster.placement()->migrations();
  outcome.hot_home = cluster.routing().NodeOf(kHotFn);
  if (const std::vector<NodeId>* placements = cluster.routing().PlacementsOf(kHotFn)) {
    outcome.hot_placements = *placements;
  }
  outcome.executor_errors = executor.errors();
  outcome.pending_calls = executor.pending_calls();
  outcome.migration_counter = cluster.metrics().ValueOf("placement_migrations");
  return outcome;
}

TEST(PlacementRebalanceTest, HotFunctionMigratesAndVictimRecovers) {
  const Outcome outcome = RunRebalanceChaos(kDefaultSeed);

  // The overloaded node shed its hot function onto the idle replica.
  EXPECT_GE(outcome.migrations, 1u);
  EXPECT_EQ(outcome.migration_counter, outcome.migrations);
  EXPECT_EQ(outcome.hot_home, 2u) << "hot function now served from node 2";
  EXPECT_EQ(outcome.hot_placements, (std::vector<NodeId>{2}))
      << "the overloaded placement was removed, not duplicated";

  // Every request — including those in flight across the migration —
  // terminated: nothing hung, nothing errored.
  EXPECT_EQ(outcome.hot_completed, 2000u);
  EXPECT_EQ(outcome.victim_completed, 500u);
  EXPECT_EQ(outcome.executor_errors, 0u);
  EXPECT_EQ(outcome.pending_calls, 0u);

  // The victim chain's latency collapses once it no longer queues behind
  // 40us hot computes on the shared core.
  ASSERT_FALSE(outcome.victim_pre.empty());
  ASSERT_FALSE(outcome.victim_post.empty());
  EXPECT_LT(MeanUs(outcome.victim_post), MeanUs(outcome.victim_pre))
      << "pre-migration mean " << MeanUs(outcome.victim_pre) << "us, post "
      << MeanUs(outcome.victim_post) << "us";
  EXPECT_LT(P99Us(outcome.victim_post), P99Us(outcome.victim_pre))
      << "pre-migration p99 " << P99Us(outcome.victim_pre) << "us, post "
      << P99Us(outcome.victim_post) << "us";
}

TEST(PlacementRebalanceTest, EqualSeedsReproduceMigrationTimeline) {
  const Outcome a = RunRebalanceChaos(77);
  const Outcome b = RunRebalanceChaos(77);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.hot_home, b.hot_home);
  EXPECT_EQ(a.hot_completed, b.hot_completed);
  EXPECT_EQ(a.victim_completed, b.victim_completed);
  EXPECT_EQ(a.victim_pre, b.victim_pre);
  EXPECT_EQ(a.victim_post, b.victim_post);
}

}  // namespace
}  // namespace nadino
