// End-to-end retry recovery (the PR's acceptance chaos test): a FaultPlane
// burst-drop on the DNE TX path terminally loses chain invocations at the
// pre-SLO behaviour, but completes them once a RetryPolicy is registered —
// via the DNE-level drop/NACK re-send and the executor-level per-attempt
// timeout, both gated by the tenant's error budget. Equal seeds plus equal
// fault/SLO config must reproduce the run byte-for-byte.

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

struct ChaosOutcome {
  int requests = 0;
  int completed = 0;
  uint64_t executor_errors = 0;
  size_t pending_calls = 0;
  uint64_t faults_injected = 0;
  uint64_t retry_attempts = 0;
  uint64_t retry_timeouts = 0;
  uint64_t retry_exhausted = 0;
  uint64_t retry_budget_denied = 0;
  uint64_t retry_stale_responses = 0;
  uint64_t budget_consumed = 0;
  uint64_t budget_exhausted = 0;
  bool buffers_conserved = true;
  uint64_t ownership_violations = 0;
  std::string metrics_text;
};

struct ChaosConfig {
  uint64_t seed = kDefaultSeed;
  bool with_retry = false;
  std::vector<FaultSpec> faults;
  RetryPolicy policy;
  SloTarget target;
};

// A fixed two-hop chain: client(99) and entry(100) on worker 0, callee(101)
// on worker 1, so every call and response crosses the DNE TX path.
ChaosOutcome RunChaosChain(const ChaosConfig& config) {
  CostModel cost = CostModel::Default();
  ClusterConfig cluster_config;
  cluster_config.worker_nodes = 2;
  cluster_config.with_ingress_node = false;
  cluster_config.seed = config.seed;
  Cluster cluster(&cost, cluster_config);
  cluster.CreateTenantPools(1, 2048, 8192);
  for (const FaultSpec& spec : config.faults) {
    EXPECT_GE(cluster.env().faults().Install(spec), 0);
  }
  if (config.with_retry) {
    cluster.env().slos().Register(1, config.target);
    cluster.env().slos().SetRetryPolicy(1, config.policy);
  }

  NadinoDataPlane dp(cluster.env(), &cluster.routing(), {});
  dp.AddWorkerNode(cluster.worker(0));
  dp.AddWorkerNode(cluster.worker(1));
  dp.AttachTenant(1, 1);
  dp.Start();

  ChainSpec spec;
  spec.id = 1;
  spec.tenant = 1;
  spec.entry = 100;
  spec.entry_request_payload = 512;
  FunctionBehavior entry;
  entry.compute = 5 * kMicrosecond;
  entry.calls.push_back(CallSpec{101, 512});
  entry.response_payload = 256;
  spec.behaviors[100] = entry;
  FunctionBehavior leaf;
  leaf.compute = 5 * kMicrosecond;
  leaf.response_payload = 256;
  spec.behaviors[101] = leaf;

  ChainExecutor executor(cluster.env(), &dp);
  executor.RegisterChain(spec);
  std::vector<std::unique_ptr<FunctionRuntime>> functions;
  for (const auto& [fn_id, placement] : std::vector<std::pair<FunctionId, int>>{
           {100, 0}, {101, 1}}) {
    Node* node = cluster.worker(placement);
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

  ChaosOutcome outcome;
  client.SetHandler([&](FunctionRuntime& fn, Buffer* buffer) {
    const auto header = ReadMessage(*buffer);
    if (header.has_value() && header->is_response()) {
      ++outcome.completed;
    }
    fn.pool()->Put(buffer, fn.owner_id());
  });

  std::vector<size_t> baseline_in_use;
  for (int i = 0; i < 2; ++i) {
    baseline_in_use.push_back(cluster.worker(i)->tenants().PoolOfTenant(1)->in_use());
  }

  outcome.requests = 5;
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
        client.pool()->Put(request, client.owner_id());
      }
    });
  }
  cluster.sim().RunFor(2 * kSecond);

  const MetricLabels tenant = MetricLabels::Tenant(1);
  MetricsRegistry& metrics = cluster.metrics();
  outcome.executor_errors = executor.errors();
  outcome.pending_calls = executor.pending_calls();
  outcome.faults_injected = cluster.env().faults().injected_total();
  outcome.retry_attempts = metrics.ValueOf("retry_attempts", tenant);
  outcome.retry_timeouts = metrics.ValueOf("retry_timeouts", tenant);
  outcome.retry_exhausted = metrics.ValueOf("retry_exhausted", tenant);
  outcome.retry_budget_denied = metrics.ValueOf("retry_budget_denied", tenant);
  outcome.retry_stale_responses = metrics.ValueOf("retry_stale_responses", tenant);
  outcome.budget_consumed = metrics.ValueOf("slo_error_budget_consumed", tenant);
  outcome.budget_exhausted = metrics.ValueOf("slo_budget_exhausted", tenant);
  for (int i = 0; i < 2; ++i) {
    BufferPool* pool = cluster.worker(i)->tenants().PoolOfTenant(1);
    if (pool->in_use() != baseline_in_use[static_cast<size_t>(i)]) {
      outcome.buffers_conserved = false;
    }
    outcome.ownership_violations += pool->stats().ownership_violations;
  }
  outcome.metrics_text = metrics.SnapshotText();
  return outcome;
}

FaultSpec BurstDrop(FaultSite site, uint64_t max_injections) {
  FaultSpec spec;
  spec.site = site;
  spec.action = FaultAction::kDrop;
  spec.probability = 1.0;
  spec.max_injections = max_injections;
  return spec;
}

ChaosConfig RetryConfig() {
  ChaosConfig config;
  config.with_retry = true;
  config.policy.max_attempts = 4;
  config.policy.timeout = 2 * kMillisecond;
  config.policy.backoff_base = 100 * kMicrosecond;
  return config;
}

// HEAD behaviour without a RetryPolicy: a TX-path burst drop terminally
// loses invocations — the chain never completes them.
TEST(RetryRecoveryTest, DneTxBurstDropIsTerminalWithoutPolicy) {
  ChaosConfig config;
  config.faults.push_back(BurstDrop(FaultSite::kDneTx, 3));
  const ChaosOutcome outcome = RunChaosChain(config);
  EXPECT_EQ(outcome.faults_injected, 3u);
  EXPECT_LT(outcome.completed, outcome.requests);
  EXPECT_EQ(outcome.retry_attempts, 0u);
  EXPECT_TRUE(outcome.buffers_conserved) << "drops must not leak buffers";
  EXPECT_EQ(outcome.ownership_violations, 0u);
}

// The acceptance run: the same burst drop completes every invocation once
// retries are enabled, consuming error budget along the way.
TEST(RetryRecoveryTest, DneTxBurstDropRecoversWithRetry) {
  ChaosConfig config = RetryConfig();
  config.faults.push_back(BurstDrop(FaultSite::kDneTx, 3));
  const ChaosOutcome outcome = RunChaosChain(config);
  EXPECT_EQ(outcome.completed, outcome.requests);
  EXPECT_EQ(outcome.executor_errors, 0u);
  EXPECT_GT(outcome.retry_attempts, 0u);
  EXPECT_GT(outcome.budget_consumed, 0u);
  EXPECT_EQ(outcome.retry_exhausted, 0u);
  EXPECT_TRUE(outcome.buffers_conserved);
  EXPECT_EQ(outcome.ownership_violations, 0u);
}

// Injected RNIC TX loss surfaces as an error completion (the simulated NACK,
// DESIGN.md "counted not hung"); the engine re-ingests instead of dropping.
TEST(RetryRecoveryTest, RnicNackRecoversWithRetry) {
  ChaosConfig config = RetryConfig();
  config.faults.push_back(BurstDrop(FaultSite::kRnicTx, 2));
  const ChaosOutcome outcome = RunChaosChain(config);
  EXPECT_EQ(outcome.completed, outcome.requests);
  EXPECT_GE(outcome.retry_attempts, 2u);
  EXPECT_TRUE(outcome.buffers_conserved);
  EXPECT_EQ(outcome.ownership_violations, 0u);
}

// Fabric loss is invisible to the sender's engine, so recovery comes from the
// executor's per-attempt timeout: the call is marked stale and re-issued from
// a fresh buffer with a new correlation id.
TEST(RetryRecoveryTest, FabricLossRecoversViaExecutorTimeout) {
  ChaosConfig config = RetryConfig();
  config.faults.push_back(BurstDrop(FaultSite::kFabric, 2));
  const ChaosOutcome outcome = RunChaosChain(config);
  EXPECT_EQ(outcome.completed, outcome.requests);
  EXPECT_GT(outcome.retry_timeouts, 0u);
  EXPECT_GT(outcome.retry_attempts, 0u);
  EXPECT_TRUE(outcome.buffers_conserved);
  EXPECT_EQ(outcome.ownership_violations, 0u);
}

// A permanent drop cannot be retried forever: the error budget caps the
// amplification and the run converges with denials/exhaustions counted.
TEST(RetryRecoveryTest, RetryBudgetCapsAmplification) {
  ChaosConfig config = RetryConfig();
  config.target.min_budget_per_window = 2;
  config.policy.max_attempts = 100;  // Budget, not attempts, is the limiter.
  config.faults.push_back(BurstDrop(FaultSite::kDneTx, 0));  // Unlimited.
  const ChaosOutcome outcome = RunChaosChain(config);
  EXPECT_EQ(outcome.completed, 0);
  EXPECT_GT(outcome.retry_budget_denied + outcome.budget_exhausted, 0u);
  EXPECT_LE(outcome.retry_attempts, 4u)
      << "budget must cap retries well below max_attempts * requests";
  EXPECT_TRUE(outcome.buffers_conserved);
  EXPECT_EQ(outcome.ownership_violations, 0u);
}

// A window in which the fabric drops everything the caller's node sends: its
// calls are lost until the window closes. Every invocation still terminates
// — completed before the window or by a retry, or counted as an executor
// error once the attempts run out — and nothing stays pending. Equal seeds
// reproduce the faulted run byte-identically.
TEST(RetryRecoveryTest, FabricDropWindowTerminatesEveryChain) {
  auto run = [](uint64_t seed) {
    ChaosConfig config = RetryConfig();
    config.seed = seed;
    FaultSpec window;
    window.site = FaultSite::kFabric;
    window.action = FaultAction::kDrop;
    window.node = 1;  // The caller's node.
    window.window_start = 500 * kMicrosecond;
    window.window_end = 12 * kMillisecond;
    config.faults.push_back(window);
    return RunChaosChain(config);
  };
  const ChaosOutcome outcome = run(kDefaultSeed);
  EXPECT_GT(outcome.faults_injected, 0u);
  EXPECT_GT(outcome.retry_timeouts, 0u);
  EXPECT_EQ(outcome.pending_calls, 0u);
  EXPECT_EQ(static_cast<uint64_t>(outcome.completed) + outcome.executor_errors,
            static_cast<uint64_t>(outcome.requests));
  EXPECT_GT(outcome.completed, 0);
  EXPECT_GT(outcome.retry_exhausted, 0u) << "the window outlasts some retry chains";
  EXPECT_TRUE(outcome.buffers_conserved) << "window drops must not leak buffers";
  EXPECT_EQ(outcome.ownership_violations, 0u);

  EXPECT_EQ(run(kDefaultSeed).metrics_text, outcome.metrics_text);
  EXPECT_EQ(run(kDefaultSeed + 1).pending_calls, 0u) << "termination holds across seeds";
}

// The same window on the callee's node drops ACKs of calls the callee
// received, so the caller's engine times the WR out and the DNE re-sends a
// call the callee already answered. The callee answers the copy too; that
// second answer is stale, not an error, so every request still ends exactly
// once, completed or failed.
TEST(RetryRecoveryTest, CalleeNodeDropWindowCountsEveryRequestOnce) {
  ChaosConfig config = RetryConfig();
  FaultSpec window;
  window.site = FaultSite::kFabric;
  window.action = FaultAction::kDrop;
  window.node = 2;  // The callee's node.
  window.window_start = 500 * kMicrosecond;
  window.window_end = 6 * kMillisecond;
  config.faults.push_back(window);
  const ChaosOutcome outcome = RunChaosChain(config);
  EXPECT_GT(outcome.faults_injected, 0u);
  EXPECT_GT(outcome.retry_stale_responses, 0u) << "the callee answered a re-sent call";
  EXPECT_EQ(outcome.pending_calls, 0u);
  EXPECT_EQ(static_cast<uint64_t>(outcome.completed) + outcome.executor_errors,
            static_cast<uint64_t>(outcome.requests));
  EXPECT_TRUE(outcome.buffers_conserved);
  EXPECT_EQ(outcome.ownership_violations, 0u);
}

// The determinism contract extended to the SLO layer: equal seed + equal
// fault/SLO/retry config ⇒ byte-identical snapshots, including jittered
// backoff timing and all retry_*/slo_* instruments.
TEST(RetryRecoveryTest, EqualSeedsReproduceByteIdentically) {
  ChaosConfig config = RetryConfig();
  config.faults.push_back(BurstDrop(FaultSite::kDneTx, 3));
  const ChaosOutcome a = RunChaosChain(config);
  const ChaosOutcome b = RunChaosChain(config);
  EXPECT_GT(a.retry_attempts, 0u);
  EXPECT_EQ(a.metrics_text, b.metrics_text);
}

}  // namespace
}  // namespace nadino
