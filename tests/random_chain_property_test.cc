// Randomized end-to-end property test: random call trees (depth, calls per
// function, payloads) over random placements, executed on the
// NADINO data plane. Invariants checked for every topology and seed:
//   * every injected request completes with an integrity-checked response;
//   * zero software payload copies;
//   * buffer conservation and zero ownership violations at quiesce;
//   * the executor reports zero errors.
//
// The chaos variants re-run the same property under the FaultPlane: delay
// faults must not lose anything; bounded drop/duplicate faults may lose at
// most one request per injected drop, and every loss is counted — buffers
// still conserve and nothing corrupts silently (DESIGN.md §6).

#include <gtest/gtest.h>

#include "src/core/experiments.h"
#include "src/runtime/chain.h"
#include "src/runtime/message_header.h"
#include "src/sim/random.h"
#include "tests/registry_read.h"

namespace nadino {
namespace {

// Builds a random call tree rooted at `fn`, assigning behaviors into `spec`.
void BuildRandomTree(Rng& rng, ChainSpec* spec, FunctionId fn, FunctionId* next_fn,
                     int depth, int max_depth) {
  FunctionBehavior behavior;
  behavior.compute = static_cast<SimDuration>(rng.UniformInt(1, 20)) * kMicrosecond;
  behavior.response_payload = static_cast<uint32_t>(rng.UniformInt(16, 3000));
  if (depth < max_depth) {
    const int fanout = static_cast<int>(rng.UniformInt(0, 3));
    for (int i = 0; i < fanout; ++i) {
      const FunctionId child = (*next_fn)++;
      behavior.calls.push_back(
          CallSpec{child, static_cast<uint32_t>(rng.UniformInt(16, 3000))});
      BuildRandomTree(rng, spec, child, next_fn, depth + 1, max_depth);
    }
  }
  spec->behaviors[fn] = behavior;
}

struct DagOutcome {
  int requests = 0;
  int completed = 0;
  int integrity_failures = 0;  // Responses that failed ReadMessage at the client.
  uint64_t executor_errors = 0;
  uint64_t payload_copies = 0;
  uint64_t ownership_violations = 0;
  bool buffers_conserved = true;
  uint64_t faults_injected = 0;
};

// One full randomized run: builds the topology from `seed`, installs `faults`
// into the cluster's FaultPlane, drives 20 requests, quiesces, and reports.
DagOutcome RunRandomDag(uint64_t seed, const std::vector<FaultSpec>& faults) {
  Rng rng(seed);
  CostModel cost = CostModel::Default();
  ClusterConfig config;
  config.worker_nodes = 2 + static_cast<int>(rng.UniformInt(0, 1));
  config.with_ingress_node = false;
  Cluster cluster(&cost, config);
  cluster.CreateTenantPools(1, 2048, 8192);
  for (const FaultSpec& spec : faults) {
    EXPECT_GE(cluster.env().faults().Install(spec), 0);
  }

  NadinoDataPlane dp(cluster.env(), &cluster.routing(), {});
  for (int i = 0; i < cluster.worker_count(); ++i) {
    dp.AddWorkerNode(cluster.worker(i));
  }
  dp.AttachTenant(1, 1);
  dp.Start();

  // Random chain over up to ~20 functions.
  ChainSpec spec;
  spec.id = 1;
  spec.tenant = 1;
  spec.entry = 100;
  spec.entry_request_payload = static_cast<uint32_t>(rng.UniformInt(16, 2000));
  FunctionId next_fn = 101;
  BuildRandomTree(rng, &spec, 100, &next_fn, 0, 3);

  ChainExecutor executor(cluster.env(), &dp);
  executor.RegisterChain(spec);
  std::vector<std::unique_ptr<FunctionRuntime>> functions;
  for (const auto& [fn_id, behavior] : spec.behaviors) {
    Node* node = cluster.worker(static_cast<int>(rng.UniformInt(
        0, static_cast<uint64_t>(cluster.worker_count() - 1))));
    functions.push_back(std::make_unique<FunctionRuntime>(
        fn_id, 1, "fn" + std::to_string(fn_id), node, node->AllocateCore(),
        node->tenants().PoolOfTenant(1)));
    dp.RegisterFunction(functions.back().get());
    executor.AttachFunction(functions.back().get());
  }
  FunctionRuntime client(99, 1, "client", cluster.worker(0),
                         cluster.worker(0)->AllocateCore(),
                         cluster.worker(0)->tenants().PoolOfTenant(1));
  dp.RegisterFunction(&client);

  DagOutcome outcome;
  client.SetHandler([&](FunctionRuntime& fn, Buffer* buffer) {
    const auto header = ReadMessage(*buffer);
    if (!header.has_value()) {
      ++outcome.integrity_failures;
    } else {
      EXPECT_TRUE(header->is_response());
      ++outcome.completed;
    }
    fn.pool()->Put(buffer, fn.owner_id());
  });

  std::vector<size_t> baseline_in_use;
  for (int i = 0; i < cluster.worker_count(); ++i) {
    baseline_in_use.push_back(cluster.worker(i)->tenants().PoolOfTenant(1)->in_use());
  }

  outcome.requests = 20;
  for (int i = 0; i < outcome.requests; ++i) {
    cluster.sim().Schedule(static_cast<SimDuration>(i) * 300 * kMicrosecond, [&]() {
      Buffer* request = client.pool()->Get(client.owner_id());
      ASSERT_NE(request, nullptr);
      MessageHeader header;
      header.chain = 1;
      header.src = 99;
      header.dst = 100;
      header.payload_length = spec.entry_request_payload;
      header.request_id = executor.NextRequestId();
      WriteMessage(request, header);
      if (!dp.Send(&client, request)) {
        // Entry drop: the caller still owns the buffer (contract) — recycle.
        client.pool()->Put(request, client.owner_id());
      }
    });
  }
  cluster.sim().RunFor(2 * kSecond);

  outcome.executor_errors = executor.errors();
  outcome.payload_copies = RegistryCounter(cluster.metrics(), "dataplane_payload_copies");
  outcome.faults_injected = cluster.env().faults().injected_total();
  for (int i = 0; i < cluster.worker_count(); ++i) {
    BufferPool* pool = cluster.worker(i)->tenants().PoolOfTenant(1);
    if (pool->in_use() != baseline_in_use[static_cast<size_t>(i)]) {
      outcome.buffers_conserved = false;
    }
    outcome.ownership_violations += pool->stats().ownership_violations;
  }
  return outcome;
}

class RandomChainPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomChainPropertyTest, RandomDagCompletesCleanly) {
  const DagOutcome outcome = RunRandomDag(GetParam(), {});
  EXPECT_EQ(outcome.completed, outcome.requests)
      << "lost requests in topology seed " << GetParam();
  EXPECT_EQ(outcome.integrity_failures, 0);
  EXPECT_EQ(outcome.executor_errors, 0u);
  EXPECT_EQ(outcome.payload_copies, 0u);
  EXPECT_TRUE(outcome.buffers_conserved) << "leak in topology seed " << GetParam();
  EXPECT_EQ(outcome.ownership_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChainPropertyTest,
                         ::testing::Values(0x01u, 0x2Au, 0x3Bu, 0x4Cu, 0x5Du, 0x6Eu, 0x7Fu,
                                           0x80u, 0x91u, 0xA2u, 0xB3u, 0xC4u));

// Delay faults reorder and stretch every boundary but lose nothing: the full
// clean-run property must still hold, and injections must actually happen.
TEST(RandomChainChaosTest, DelayChaosLosesNothing) {
  std::vector<FaultSpec> faults;
  for (FaultSite site : {FaultSite::kComch, FaultSite::kSkMsg, FaultSite::kDneTx,
                         FaultSite::kDneRx, FaultSite::kRnicTx, FaultSite::kRnicRx,
                         FaultSite::kFabric}) {
    FaultSpec spec;
    spec.site = site;
    spec.action = FaultAction::kDelay;
    spec.probability = 0.2;
    spec.delay = 30 * kMicrosecond;
    faults.push_back(spec);
  }
  const DagOutcome outcome = RunRandomDag(0x5Du, faults);
  EXPECT_GT(outcome.faults_injected, 20u);
  EXPECT_EQ(outcome.completed, outcome.requests);
  EXPECT_EQ(outcome.integrity_failures, 0);
  EXPECT_EQ(outcome.executor_errors, 0u);
  EXPECT_TRUE(outcome.buffers_conserved);
  EXPECT_EQ(outcome.ownership_violations, 0u);
}

// Bounded drops plus wire duplicates: every loss is bounded by the injection
// count (drops are counted, not hung), duplicates are detected by the
// executor's correlation state rather than double-executed, buffers conserve,
// and nothing corrupts silently.
TEST(RandomChainChaosTest, DropAndDuplicateChaosConservedAndCounted) {
  std::vector<FaultSpec> faults;
  uint64_t max_drops = 0;
  for (FaultSite site : {FaultSite::kComch, FaultSite::kSkMsg, FaultSite::kDneTx,
                         FaultSite::kDneRx, FaultSite::kRnicTx, FaultSite::kRnicRx}) {
    FaultSpec spec;
    spec.site = site;
    spec.action = FaultAction::kDrop;
    spec.probability = 0.02;
    spec.max_injections = 2;
    max_drops += spec.max_injections;
    faults.push_back(spec);
  }
  FaultSpec dup;
  dup.site = FaultSite::kRnicRx;
  dup.action = FaultAction::kDuplicate;
  dup.probability = 0.05;
  dup.max_injections = 3;
  faults.push_back(dup);

  const DagOutcome outcome = RunRandomDag(0x2Au, faults);
  EXPECT_GT(outcome.faults_injected, 0u);
  // At most one request dies per injected drop; none die silently stuck.
  EXPECT_GE(outcome.completed,
            outcome.requests - static_cast<int>(max_drops));
  EXPECT_LT(outcome.completed + outcome.integrity_failures, outcome.requests + 1);
  EXPECT_TRUE(outcome.buffers_conserved);
  EXPECT_EQ(outcome.ownership_violations, 0u);
  EXPECT_EQ(outcome.payload_copies, 0u);
}

}  // namespace
}  // namespace nadino
