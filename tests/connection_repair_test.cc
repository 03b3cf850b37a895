// Connection repair under a transient network partition (satellite of the
// elastic control plane, DESIGN.md §3f). A fabric drop window on the server
// node loses everything it sends mid-transfer: in-flight WRs die by ack
// timeout, the error completions mark their QPs errored, and the
// ConnectionService runs repair handshakes. After the window heals the
// repaired (or freshly established) QPs carry traffic again — nothing hangs
// and every buffer is conserved.

#include <gtest/gtest.h>

#include "src/core/experiments.h"
#include "src/rdma/control_plane.h"
#include "tests/registry_read.h"

namespace nadino {
namespace {

constexpr TenantId kTenant = 1;
constexpr NodeId kClientNode = 1;
constexpr NodeId kServerNode = 2;
// Severed only after the lazy handshakes (~20ms each direction, serial)
// have completed and echoes are flowing.
constexpr SimTime kSeverAt = 60 * kMillisecond;
constexpr SimTime kHealAt = 90 * kMillisecond;

class ConnectionRepairTest : public ::testing::Test {
 protected:
  ConnectionRepairTest() {
    ClusterConfig config;
    config.worker_nodes = 2;
    config.with_ingress_node = false;
    cluster_ = std::make_unique<Cluster>(&cost_, config);
  }

  // Drops every fabric crossing `node` sends during [at, until).
  void DropSendsFrom(NodeId node, SimTime at, SimTime until) {
    FaultSpec spec;
    spec.site = FaultSite::kFabric;
    spec.action = FaultAction::kDrop;
    spec.node = node;
    spec.window_start = at;
    spec.window_end = until;
    ASSERT_GE(cluster_->env().faults().Install(spec), 0);
  }

  CostModel cost_ = CostModel::Default();
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(ConnectionRepairTest, SeveredPeerIsRepairedAndTrafficResumes) {
  cluster_->CreateTenantPools(kTenant, 512, 8192);
  // Lazy policy: connections are established on demand and — unlike the
  // legacy eager pool — transport errors trigger repair handshakes. Modest
  // receive posting so the two engines leave the pool room for the sender.
  NadinoDataPlane::Options options;
  options.connections.policy = ConnectPolicy::kLazy;
  options.connections.instrument = true;
  options.engine.initial_recv_buffers = 32;
  NadinoDataPlane dp(cluster_->env(), &cluster_->routing(), options);
  dp.AddWorkerNode(cluster_->worker(0));
  dp.AddWorkerNode(cluster_->worker(1));
  dp.AttachTenant(kTenant, 1);
  dp.Start();
  // Engine-level retries bridge the outage; generous attempts with a capped
  // backoff cover the 30ms window plus the 20ms repair handshake.
  RetryPolicy retry;
  retry.max_attempts = 16;
  retry.timeout = 0;
  retry.backoff_base = 500 * kMicrosecond;
  retry.backoff_cap = 5 * kMillisecond;
  cluster_->env().slos().SetRetryPolicy(kTenant, retry);

  FunctionRuntime client(11, kTenant, "c", cluster_->worker(0),
                         cluster_->worker(0)->AllocateCore(),
                         cluster_->worker(0)->tenants().PoolOfTenant(kTenant));
  FunctionRuntime server(12, kTenant, "s", cluster_->worker(1),
                         cluster_->worker(1)->AllocateCore(),
                         cluster_->worker(1)->tenants().PoolOfTenant(kTenant));
  dp.RegisterFunction(&client);
  dp.RegisterFunction(&server);

  // Steady state before load: the engines' posted receive buffers.
  cluster_->sim().RunFor(10 * kMillisecond);
  BufferPool* pool0 = cluster_->worker(0)->tenants().PoolOfTenant(kTenant);
  BufferPool* pool1 = cluster_->worker(1)->tenants().PoolOfTenant(kTenant);
  const size_t baseline0 = pool0->in_use();
  const size_t baseline1 = pool1->in_use();

  DropSendsFrom(kServerNode, kSeverAt, kHealAt);

  TenantEchoLoad::Options load_options;
  load_options.window = 4;
  load_options.payload_bytes = 512;
  TenantEchoLoad load(cluster_->env(), &dp, &client, &server, load_options);
  load.SetActive(true);

  // Phase 1: healthy. The lazy handshake (~20ms) completes and echoes flow.
  cluster_->sim().RunFor(kSeverAt - 10 * kMillisecond);
  const uint64_t completed_pre_sever = load.completed();
  ASSERT_GT(completed_pre_sever, 0u);
  const ConnectionService& service = cluster_->worker(0)->connections();
  EXPECT_EQ(RegistryCounter(cluster_->metrics(), "connmgr_repairs",
                            MetricLabels::Node(cluster_->worker(0)->id())),
            0u);

  // Phase 2: severed. In-flight WRs die by ack timeout; errored QPs are
  // repaired (the handshake itself is pure latency, so it completes even
  // while the fabric is down).
  cluster_->sim().RunFor(kHealAt - kSeverAt + 20 * kMillisecond);
  EXPECT_GE(RegistryCounter(cluster_->metrics(), "connmgr_repairs",
                            MetricLabels::Node(cluster_->worker(0)->id())),
            1u);
  EXPECT_GE(cluster_->metrics().ValueOf("connmgr_repairs", MetricLabels::Node(kClientNode)),
            1u);
  const uint64_t completed_at_heal = load.completed();

  // Phase 3: healed. Retried messages land on repaired/re-established QPs
  // and the closed loop picks back up — the outage cost latency, not a hang.
  cluster_->sim().RunFor(150 * kMillisecond);
  EXPECT_GT(load.completed(), completed_at_heal + 100u);
  EXPECT_EQ(service.StateOf(kServerNode, kTenant), QpLifecycle::kActive);
  EXPECT_GE(service.PooledCount(kServerNode, kTenant), 1);

  // Drain and check conservation: every errored WR's buffer was reclaimed at
  // the sender, every delivered one recycled — no leaks across the fault.
  load.SetActive(false);
  cluster_->sim().RunFor(100 * kMillisecond);
  EXPECT_EQ(pool0->in_use(), baseline0);
  EXPECT_EQ(pool1->in_use(), baseline1);
  EXPECT_EQ(pool0->stats().ownership_violations, 0u);
  EXPECT_EQ(pool1->stats().ownership_violations, 0u);
}

TEST_F(ConnectionRepairTest, EagerPolicyIgnoresTransportErrors) {
  // The legacy eager pool predates repair: transport errors must stay no-ops
  // there (bench goldens pin this), so NoteTransportError never repairs.
  cluster_->CreateTenantPools(kTenant, 512, 8192);
  NadinoDataPlane::Options options;
  options.engine.initial_recv_buffers = 32;
  NadinoDataPlane dp(cluster_->env(), &cluster_->routing(), options);
  dp.AddWorkerNode(cluster_->worker(0));
  dp.AddWorkerNode(cluster_->worker(1));
  dp.AttachTenant(kTenant, 1);
  dp.Start();
  RetryPolicy retry;
  retry.max_attempts = 16;
  retry.timeout = 0;
  retry.backoff_cap = 5 * kMillisecond;
  cluster_->env().slos().SetRetryPolicy(kTenant, retry);
  FunctionRuntime client(11, kTenant, "c", cluster_->worker(0),
                         cluster_->worker(0)->AllocateCore(),
                         cluster_->worker(0)->tenants().PoolOfTenant(kTenant));
  FunctionRuntime server(12, kTenant, "s", cluster_->worker(1),
                         cluster_->worker(1)->AllocateCore(),
                         cluster_->worker(1)->tenants().PoolOfTenant(kTenant));
  dp.RegisterFunction(&client);
  dp.RegisterFunction(&server);
  DropSendsFrom(kServerNode, kSeverAt, kHealAt);
  TenantEchoLoad load(cluster_->env(), &dp, &client, &server, {});
  load.SetActive(true);
  cluster_->sim().RunFor(200 * kMillisecond);
  EXPECT_EQ(RegistryCounter(cluster_->metrics(), "connmgr_repairs",
                            MetricLabels::Node(cluster_->worker(0)->id())),
            0u);
  // The eager pool still recovers — RC completes errored WRs rather than
  // wedging the QP, and engine retries resend them after the heal.
  EXPECT_GT(load.completed(), 1000u);
}

}  // namespace
}  // namespace nadino
