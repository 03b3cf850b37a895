// Failure injection: the data plane under pool exhaustion, severed channels,
// in-flight corruption, and misbehaving tenants. The invariant throughout:
// errors are detected and counted, buffers are conserved, nothing corrupts
// silently.

#include <gtest/gtest.h>

#include "src/core/experiments.h"
#include "src/runtime/chain.h"
#include "src/runtime/message_header.h"
#include "tests/registry_read.h"

namespace nadino {
namespace {

class FailureInjectionTest : public ::testing::Test {
 protected:
  FailureInjectionTest() {
    ClusterConfig config;
    config.worker_nodes = 2;
    config.with_ingress_node = false;
    cluster_ = std::make_unique<Cluster>(&cost_, config);
  }

  CostModel cost_ = CostModel::Default();
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(FailureInjectionTest, TinyPoolBackpressuresWithoutCorruption) {
  // A pool barely larger than the engine's receive posting: heavy traffic
  // must throttle on Get() failures, never corrupt or double-allocate.
  cluster_->CreateTenantPools(1, /*buffers=*/40, /*buffer_size=*/8192);
  NadinoDataPlane::Options options;
  options.engine.initial_recv_buffers = 16;
  NadinoDataPlane dp(cluster_->env(), &cluster_->routing(), options);
  dp.AddWorkerNode(cluster_->worker(0));
  dp.AddWorkerNode(cluster_->worker(1));
  dp.AttachTenant(1, 1);
  dp.Start();
  FunctionRuntime client(11, 1, "c", cluster_->worker(0), cluster_->worker(0)->AllocateCore(),
                         cluster_->worker(0)->tenants().PoolOfTenant(1));
  FunctionRuntime server(12, 1, "s", cluster_->worker(1), cluster_->worker(1)->AllocateCore(),
                         cluster_->worker(1)->tenants().PoolOfTenant(1));
  dp.RegisterFunction(&client);
  dp.RegisterFunction(&server);
  TenantEchoLoad::Options load_options;
  load_options.window = 64;  // Far beyond what 40 buffers can support.
  load_options.payload_bytes = 1024;
  TenantEchoLoad load(cluster_->env(), &dp, &client, &server, load_options);
  load.SetActive(true);
  cluster_->sim().RunFor(300 * kMillisecond);
  EXPECT_GT(load.completed(), 1000u);  // Still flows, just throttled.
  BufferPool* pool0 = cluster_->worker(0)->tenants().PoolOfTenant(1);
  BufferPool* pool1 = cluster_->worker(1)->tenants().PoolOfTenant(1);
  EXPECT_EQ(pool0->stats().ownership_violations, 0u);
  EXPECT_EQ(pool1->stats().ownership_violations, 0u);
  EXPECT_LE(pool0->in_use(), pool0->capacity());
  // Exhaustion was actually exercised.
  EXPECT_GT(pool0->stats().get_failures + pool1->stats().get_failures, 0u);
}

TEST_F(FailureInjectionTest, SeveredTenantChannelStopsItButOthersFlow) {
  cluster_->CreateTenantPools(1, 512, 8192);
  cluster_->CreateTenantPools(2, 512, 8192);
  NadinoDataPlane dp(cluster_->env(), &cluster_->routing(), {});
  NetworkEngine* engine1 = dp.AddWorkerNode(cluster_->worker(0));
  dp.AddWorkerNode(cluster_->worker(1));
  dp.AttachTenant(1, 1);
  dp.AttachTenant(2, 1);
  dp.Start();
  FunctionRuntime c1(11, 1, "c1", cluster_->worker(0), cluster_->worker(0)->AllocateCore(),
                     cluster_->worker(0)->tenants().PoolOfTenant(1));
  FunctionRuntime s1(12, 1, "s1", cluster_->worker(1), cluster_->worker(1)->AllocateCore(),
                     cluster_->worker(1)->tenants().PoolOfTenant(1));
  FunctionRuntime c2(21, 2, "c2", cluster_->worker(0), cluster_->worker(0)->AllocateCore(),
                     cluster_->worker(0)->tenants().PoolOfTenant(2));
  FunctionRuntime s2(22, 2, "s2", cluster_->worker(1), cluster_->worker(1)->AllocateCore(),
                     cluster_->worker(1)->tenants().PoolOfTenant(2));
  for (FunctionRuntime* fn : {&c1, &s1, &c2, &s2}) {
    dp.RegisterFunction(fn);
  }
  TenantEchoLoad load1(cluster_->env(), &dp, &c1, &s1, {});
  TenantEchoLoad load2(cluster_->env(), &dp, &c2, &s2, {});
  load1.SetActive(true);
  load2.SetActive(true);
  // From 50 ms on, tenant 1's Comch channel on node 1 drops every
  // descriptor (a misbehaving tenant cut off); tenant 2 shares the node.
  const NodeId node1 = engine1->node()->id();
  FaultSpec sever;
  sever.site = FaultSite::kComch;
  sever.action = FaultAction::kDrop;
  sever.tenant = 1;
  sever.node = node1;
  sever.window_start = 50 * kMillisecond;
  ASSERT_GE(cluster_->env().faults().Install(sever), 0);
  cluster_->sim().RunFor(50 * kMillisecond);
  const uint64_t tenant1_before = load1.completed();
  ASSERT_GT(tenant1_before, 0u);
  cluster_->sim().RunFor(50 * kMillisecond);
  const uint64_t tenant1_after = load1.completed();
  const uint64_t tenant2_after = load2.completed();
  // Tenant 1 stalls (allowing in-flight drain); tenant 2 keeps its service.
  EXPECT_LE(tenant1_after, tenant1_before + 64u);
  EXPECT_GT(tenant2_after, tenant1_before / 2);
  // The drops are attributed to the severed tenant, not spread over the node.
  EXPECT_GT(RegistryCounter(cluster_->metrics(), "comch_dropped", {.tenant = 1, .node = node1}),
            0u);
  EXPECT_FALSE(RegistryHas(cluster_->metrics(), "comch_dropped", {.tenant = 2, .node = node1}));
}

TEST_F(FailureInjectionTest, CorruptedPayloadDetectedByChainExecutor) {
  cluster_->CreateTenantPools(1, 512, 8192);
  NadinoDataPlane dp(cluster_->env(), &cluster_->routing(), {});
  dp.AddWorkerNode(cluster_->worker(0));
  dp.AddWorkerNode(cluster_->worker(1));
  dp.AttachTenant(1, 1);
  dp.Start();
  ChainExecutor executor(cluster_->env(), &dp);
  ChainSpec chain;
  chain.id = 1;
  chain.tenant = 1;
  chain.entry = 12;
  FunctionBehavior echo_behavior;
  echo_behavior.compute = 5 * kMicrosecond;
  echo_behavior.response_payload = 256;
  chain.behaviors[12] = echo_behavior;
  executor.RegisterChain(chain);
  FunctionRuntime client(11, 1, "c", cluster_->worker(0), cluster_->worker(0)->AllocateCore(),
                         cluster_->worker(0)->tenants().PoolOfTenant(1));
  FunctionRuntime server(12, 1, "s", cluster_->worker(1), cluster_->worker(1)->AllocateCore(),
                         cluster_->worker(1)->tenants().PoolOfTenant(1));
  dp.RegisterFunction(&client);
  dp.RegisterFunction(&server);
  executor.AttachFunction(&server);

  Buffer* out = client.pool()->Get(client.owner_id());
  MessageHeader header;
  header.chain = 1;
  header.src = 11;
  header.dst = 12;
  header.payload_length = 512;
  header.request_id = executor.NextRequestId();
  WriteMessage(out, header);
  ASSERT_TRUE(dp.Send(&client, out));
  // Corrupt the payload mid-flight: flip a byte after the DMA snapshot would
  // have been taken... instead corrupt the *source* before the NIC reads it,
  // simulating a buggy co-tenant scribble that ownership rules would normally
  // prevent. The checksum written earlier no longer matches.
  out->data[MessageHeader::kWireSize + 7] ^= std::byte{0x5A};
  cluster_->sim().RunFor(20 * kMillisecond);
  // The executor saw the checksum mismatch and dropped the request.
  EXPECT_EQ(executor.requests_handled(), 0u);
  EXPECT_EQ(executor.errors(), 1u);
}

TEST_F(FailureInjectionTest, EngineSurvivesUnknownTenantDescriptor) {
  cluster_->CreateTenantPools(1, 512, 8192);
  NadinoDataPlane dp(cluster_->env(), &cluster_->routing(), {});
  NetworkEngine* engine = dp.AddWorkerNode(cluster_->worker(0));
  dp.AttachTenant(1, 1);
  dp.Start();
  // Forged descriptor: nonexistent pool.
  engine->IngestTx(BufferDescriptor{999, 0, 64, 12});
  // Forged descriptor: real pool, but the engine does not own the buffer.
  BufferPool* pool = cluster_->worker(0)->tenants().PoolOfTenant(1);
  Buffer* stolen = pool->Get(OwnerId::Function(66));
  ASSERT_NE(stolen, nullptr);
  engine->IngestTx(pool->MakeDescriptor(*stolen, 12));
  cluster_->sim().RunFor(kMillisecond);
  const MetricLabels labels{.node = engine->node()->id(), .engine = engine->engine_id()};
  EXPECT_EQ(RegistryCounter(cluster_->metrics(), "engine_unroutable", labels), 2u);
  EXPECT_EQ(RegistryCounter(cluster_->metrics(), "engine_tx_messages", labels), 0u);
  EXPECT_EQ(stolen->owner, OwnerId::Function(66));  // Untouched.
}

TEST_F(FailureInjectionTest, MultiSiteDropChaosCountedNotHung) {
  // Bounded drop faults at five distinct FaultPlane sites at once. The
  // DESIGN.md invariants under chaos: every drop is counted in the registry,
  // buffers are conserved (recycled at the drop site, never leaked), and the
  // data plane keeps flowing — dropped requests cost window slots, not hangs.
  cluster_->CreateTenantPools(1, 512, 8192);
  FaultPlane& plane = cluster_->env().faults();
  for (FaultSite site : {FaultSite::kComch, FaultSite::kDneTx, FaultSite::kDneRx,
                         FaultSite::kRnicTx, FaultSite::kRnicRx}) {
    FaultSpec spec;
    spec.site = site;
    spec.action = FaultAction::kDrop;
    spec.probability = 0.005;
    spec.max_injections = 6;  // 5 sites * 6 = 30 drops, below the window of 64.
    ASSERT_GE(plane.Install(spec), 0);
  }
  NadinoDataPlane dp(cluster_->env(), &cluster_->routing(), {});
  dp.AddWorkerNode(cluster_->worker(0));
  dp.AddWorkerNode(cluster_->worker(1));
  dp.AttachTenant(1, 1);
  dp.Start();
  FunctionRuntime client(11, 1, "c", cluster_->worker(0), cluster_->worker(0)->AllocateCore(),
                         cluster_->worker(0)->tenants().PoolOfTenant(1));
  FunctionRuntime server(12, 1, "s", cluster_->worker(1), cluster_->worker(1)->AllocateCore(),
                         cluster_->worker(1)->tenants().PoolOfTenant(1));
  dp.RegisterFunction(&client);
  dp.RegisterFunction(&server);
  // Steady state before load: the engines' posted receive buffers.
  cluster_->sim().RunFor(10 * kMillisecond);
  BufferPool* pool0 = cluster_->worker(0)->tenants().PoolOfTenant(1);
  BufferPool* pool1 = cluster_->worker(1)->tenants().PoolOfTenant(1);
  const size_t baseline0 = pool0->in_use();
  const size_t baseline1 = pool1->in_use();

  TenantEchoLoad::Options load_options;
  load_options.window = 64;
  load_options.payload_bytes = 1024;
  TenantEchoLoad load(cluster_->env(), &dp, &client, &server, load_options);
  load.SetActive(true);
  cluster_->sim().RunFor(300 * kMillisecond);
  load.SetActive(false);
  cluster_->sim().RunFor(50 * kMillisecond);  // Drain in-flight traffic.

  // Chaos actually happened, at more than one site, and every injection is
  // visible both in the plane totals and the registry instruments.
  EXPECT_GT(plane.injected_total(), 10u);
  int sites_hit = 0;
  uint64_t registry_total = 0;
  for (FaultSite site : {FaultSite::kComch, FaultSite::kDneTx, FaultSite::kDneRx,
                         FaultSite::kRnicTx, FaultSite::kRnicRx}) {
    sites_hit += plane.injected_at(site) > 0 ? 1 : 0;
    for (NodeId node : {cluster_->worker(0)->id(), cluster_->worker(1)->id()}) {
      MetricLabels labels;
      labels.tenant = 1;
      labels.node = static_cast<int64_t>(node);
      registry_total += cluster_->metrics().ValueOf(
          std::string("fault_injected_") + FaultSiteName(site) + "_drop", labels);
    }
  }
  EXPECT_GE(sites_hit, 3);
  EXPECT_EQ(registry_total, plane.injected_total());

  // Still flowing: drops consumed at most one window slot each.
  EXPECT_GT(load.completed(), 1000u);

  // Conservation: every dropped message's buffer was recycled where it died.
  EXPECT_EQ(pool0->in_use(), baseline0);
  EXPECT_EQ(pool1->in_use(), baseline1);
  EXPECT_EQ(pool0->stats().ownership_violations, 0u);
  EXPECT_EQ(pool1->stats().ownership_violations, 0u);
}

TEST_F(FailureInjectionTest, RnicRxCorruptionChaosIsDetectedNotSilent) {
  // Corrupt payloads on the receive side of the wire; the message-layer
  // checksum must catch every flip — responses either verify or are dropped
  // by the integrity check, never silently delivered corrupted.
  cluster_->CreateTenantPools(1, 512, 8192);
  FaultPlane& plane = cluster_->env().faults();
  FaultSpec spec;
  spec.site = FaultSite::kRnicRx;
  spec.action = FaultAction::kCorrupt;
  spec.probability = 0.01;
  spec.max_injections = 10;
  ASSERT_GE(plane.Install(spec), 0);
  NadinoDataPlane dp(cluster_->env(), &cluster_->routing(), {});
  dp.AddWorkerNode(cluster_->worker(0));
  dp.AddWorkerNode(cluster_->worker(1));
  dp.AttachTenant(1, 1);
  dp.Start();
  FunctionRuntime client(11, 1, "c", cluster_->worker(0), cluster_->worker(0)->AllocateCore(),
                         cluster_->worker(0)->tenants().PoolOfTenant(1));
  FunctionRuntime server(12, 1, "s", cluster_->worker(1), cluster_->worker(1)->AllocateCore(),
                         cluster_->worker(1)->tenants().PoolOfTenant(1));
  dp.RegisterFunction(&client);
  dp.RegisterFunction(&server);
  uint64_t verified = 0;
  uint64_t integrity_failures = 0;
  client.SetHandler([&](FunctionRuntime& fn, Buffer* b) {
    if (ReadMessage(*b).has_value()) {
      ++verified;
    } else {
      ++integrity_failures;  // Checksum caught the flip.
    }
    fn.pool()->Put(b, fn.owner_id());
  });
  int sent = 0;
  server.SetHandler([&](FunctionRuntime& fn, Buffer* b) {
    // Echo back so corruption can hit either direction.
    const auto header = ReadMessage(*b);
    if (!header.has_value()) {
      ++integrity_failures;
      fn.pool()->Put(b, fn.owner_id());
      return;
    }
    MessageHeader reply;
    reply.src = 12;
    reply.dst = 11;
    reply.payload_length = 512;
    reply.request_id = header->request_id;
    reply.flags = MessageHeader::kFlagResponse;
    WriteMessage(b, reply);
    dp.Send(&fn, b);
  });
  for (int i = 0; i < 2000; ++i) {
    cluster_->sim().Schedule(static_cast<SimDuration>(i) * 50 * kMicrosecond, [&]() {
      Buffer* out = client.pool()->Get(client.owner_id());
      if (out == nullptr) {
        return;
      }
      MessageHeader header;
      header.src = 11;
      header.dst = 12;
      header.payload_length = 512;
      header.request_id = static_cast<uint64_t>(++sent);
      WriteMessage(out, header);
      dp.Send(&client, out);
    });
  }
  cluster_->sim().RunFor(200 * kMillisecond);
  // Every injected corruption was detected by a checksum somewhere; nothing
  // was silently delivered (verified + caught accounts for all traffic).
  EXPECT_EQ(plane.injected_at(FaultSite::kRnicRx), 10u);
  EXPECT_EQ(integrity_failures, 10u);
  EXPECT_GT(verified, 1500u);
}

TEST_F(FailureInjectionTest, RnrStormResolvesOnceReceiverCatchesUp) {
  // Receiver posts very few buffers and replenishes slowly; RNR backoff
  // plus the replenisher must still deliver everything eventually.
  cluster_->CreateTenantPools(1, 256, 8192);
  NadinoDataPlane::Options options;
  options.engine.initial_recv_buffers = 2;
  NadinoDataPlane dp(cluster_->env(), &cluster_->routing(), options);
  dp.AddWorkerNode(cluster_->worker(0));
  dp.AddWorkerNode(cluster_->worker(1));
  dp.AttachTenant(1, 1);
  dp.Start();
  FunctionRuntime client(11, 1, "c", cluster_->worker(0), cluster_->worker(0)->AllocateCore(),
                         cluster_->worker(0)->tenants().PoolOfTenant(1));
  FunctionRuntime server(12, 1, "s", cluster_->worker(1), cluster_->worker(1)->AllocateCore(),
                         cluster_->worker(1)->tenants().PoolOfTenant(1));
  dp.RegisterFunction(&client);
  dp.RegisterFunction(&server);
  int received = 0;
  server.SetHandler([&](FunctionRuntime& fn, Buffer* b) {
    ++received;
    fn.pool()->Put(b, fn.owner_id());
  });
  for (int i = 0; i < 16; ++i) {
    Buffer* out = client.pool()->Get(client.owner_id());
    MessageHeader header;
    header.src = 11;
    header.dst = 12;
    header.payload_length = 128;
    header.request_id = static_cast<uint64_t>(i + 1);
    WriteMessage(out, header);
    ASSERT_TRUE(dp.Send(&client, out));
  }
  cluster_->sim().RunFor(100 * kMillisecond);
  EXPECT_EQ(received, 16);
  EXPECT_EQ(RegistryCounter(cluster_->metrics(), "rnic_rnr_failures",
                            MetricLabels::Node(cluster_->worker(1)->id())),
            0u);
}

}  // namespace
}  // namespace nadino
