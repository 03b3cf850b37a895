// Tests for the DNE/CNE network engine: tenant attach via the mmap handshake,
// engine-endpoint transfers, receive-buffer replenishment, on-path staging,
// and ownership discipline along the RX/TX paths.

#include "src/dne/network_engine.h"

#include <gtest/gtest.h>

#include <string>

#include "src/core/experiments.h"
#include "src/runtime/message_header.h"
#include "tests/registry_read.h"

namespace nadino {
namespace {

class NetworkEngineTest : public ::testing::Test {
 protected:
  NetworkEngineTest() {
    ClusterConfig config;
    config.worker_nodes = 2;
    config.with_ingress_node = false;
    cluster_ = std::make_unique<Cluster>(&cost_, config);
    cluster_->CreateTenantPools(1, 512, 8192);
  }

  NetworkEngine* MakeEngine(int node, NetworkEngine::Config config = {}) {
    config.engine_id = 1000 + static_cast<uint32_t>(node);
    engines_.push_back(std::make_unique<NetworkEngine>(cluster_->env(), cluster_->worker(node),
                                                       &cluster_->routing(), config));
    return engines_.back().get();
  }

  // engine_* counter `name` of `engine`, read strictly from the registry.
  uint64_t EngineCounter(NetworkEngine* engine, const std::string& name) const {
    return RegistryCounter(cluster_->metrics(), name,
                           {.node = engine->node()->id(), .engine = engine->engine_id()});
  }

  CostModel cost_ = CostModel::Default();
  std::unique_ptr<Cluster> cluster_;
  std::vector<std::unique_ptr<NetworkEngine>> engines_;
};

TEST_F(NetworkEngineTest, AttachTenantRegistersPoolViaMmapHandshake) {
  NetworkEngine* engine = MakeEngine(0);
  EXPECT_TRUE(engine->AttachTenant(1, 4));
  // The pool ended up registered with the node's RNIC (local access only —
  // NADINO pools are never remote-writable).
  BufferPool* pool = cluster_->worker(0)->tenants().PoolOfTenant(1);
  EXPECT_TRUE(cluster_->worker(0)->rnic().mr_table().IsRegistered(pool->id()));
  EXPECT_EQ(cluster_->worker(0)->rnic().mr_table().CheckAccess(pool->id(), kMrRemoteWrite),
            nullptr);
}

TEST_F(NetworkEngineTest, AttachUnknownTenantFails) {
  NetworkEngine* engine = MakeEngine(0);
  EXPECT_FALSE(engine->AttachTenant(77, 1));
}

TEST_F(NetworkEngineTest, AttachPostsInitialReceiveBuffers) {
  NetworkEngine::Config config;
  config.initial_recv_buffers = 16;
  NetworkEngine* engine = MakeEngine(0, config);
  ASSERT_TRUE(engine->AttachTenant(1, 1));
  EXPECT_EQ(cluster_->worker(0)->rnic().SrqOfTenant(1).depth(), 16u);
  EXPECT_EQ(engine->rbr().outstanding(), 16u);
  // Those buffers are owned by the RNIC now.
  BufferPool* pool = cluster_->worker(0)->tenants().PoolOfTenant(1);
  EXPECT_EQ(pool->in_use(), 16u);
}

// The two default RECV-ring depths: a bare engine posts 64 buffers per
// tenant, an engine built by a default NadinoDataPlane posts 256.
TEST_F(NetworkEngineTest, BareEnginePosts64ReceiveBuffersByDefault) {
  NetworkEngine* engine = MakeEngine(0);
  ASSERT_TRUE(engine->AttachTenant(1, 1));
  EXPECT_EQ(cluster_->worker(0)->rnic().SrqOfTenant(1).depth(), 64u);
  EXPECT_EQ(engine->rbr().outstanding(), 64u);
}

TEST_F(NetworkEngineTest, DataPlaneEnginesPost256ReceiveBuffersByDefault) {
  NadinoDataPlane dp(cluster_->env(), &cluster_->routing(), NadinoDataPlane::Options{});
  NetworkEngine* e0 = dp.AddWorkerNode(cluster_->worker(0));
  NetworkEngine* e1 = dp.AddWorkerNode(cluster_->worker(1));
  dp.AttachTenant(1, 1);
  for (int node = 0; node < 2; ++node) {
    EXPECT_EQ(cluster_->worker(node)->rnic().SrqOfTenant(1).depth(), 256u) << "node " << node;
  }
  EXPECT_EQ(e0->rbr().outstanding(), 256u);
  EXPECT_EQ(e1->rbr().outstanding(), 256u);
}

// Control-plane instrumentation is opt-in: default runs carry no connsvc_*
// keys (bench goldens), `connections.instrument` exports them per node.
TEST_F(NetworkEngineTest, DefaultDataPlaneRegistersNoConnsvcKeys) {
  NadinoDataPlane dp(cluster_->env(), &cluster_->routing(), NadinoDataPlane::Options{});
  dp.AddWorkerNode(cluster_->worker(0));
  dp.AddWorkerNode(cluster_->worker(1));
  dp.AttachTenant(1, 1);
  EXPECT_EQ(cluster_->metrics().SnapshotText().find("connsvc_"), std::string::npos);
}

TEST_F(NetworkEngineTest, InstrumentedDataPlaneRegistersConnsvcKeys) {
  NadinoDataPlane::Options options;
  options.connections.instrument = true;
  NadinoDataPlane dp(cluster_->env(), &cluster_->routing(), options);
  dp.AddWorkerNode(cluster_->worker(0));
  dp.AddWorkerNode(cluster_->worker(1));
  dp.AttachTenant(1, 1);
  for (int node = 0; node < 2; ++node) {
    const MetricLabels labels = MetricLabels::Node(cluster_->worker(node)->id());
    for (const char* name : {"connsvc_establishes", "connsvc_destroys", "connsvc_create_verbs",
                             "connsvc_modify_verbs", "connsvc_destroy_verbs", "connsvc_misses"}) {
      EXPECT_TRUE(RegistryHas(cluster_->metrics(), name, labels)) << name << " node " << node;
    }
  }
  // Eager prewarm ran its create/modify verbs through the instrumented service.
  EXPECT_GT(RegistryCounter(cluster_->metrics(), "connsvc_create_verbs",
                            MetricLabels::Node(cluster_->worker(0)->id())),
            0u);
}

TEST_F(NetworkEngineTest, EngineEndpointEchoAcrossNodes) {
  NetworkEngine* a = MakeEngine(0);
  NetworkEngine* b = MakeEngine(1);
  a->AttachTenant(1, 1);
  b->AttachTenant(1, 1);
  a->PrewarmPeer(b, 1, 2);
  b->PrewarmPeer(a, 1, 2);
  a->Start();
  b->Start();
  cluster_->routing().Place(11, cluster_->worker(0)->id());
  cluster_->routing().Place(12, cluster_->worker(1)->id());

  BufferPool* pool_a = cluster_->worker(0)->tenants().PoolOfTenant(1);
  uint64_t echo_checksum = 0;
  bool round_trip_done = false;
  b->SetEngineEndpoint(12, [&](Buffer* buffer) {
    const auto header = ReadMessage(*buffer);
    ASSERT_TRUE(header.has_value());
    MessageHeader reply = *header;
    reply.src = 12;
    reply.dst = 11;
    reply.flags = MessageHeader::kFlagResponse;
    RewriteHeader(buffer, reply);
    b->SendFromEngine(1, buffer);
  });
  a->SetEngineEndpoint(11, [&](Buffer* buffer) {
    const auto header = ReadMessage(*buffer);
    ASSERT_TRUE(header.has_value());
    // The message digest covers the (rewritten) header too, so compare the
    // payload bytes themselves across the round trip.
    echo_checksum = Checksum(buffer->payload().subspan(MessageHeader::kWireSize));
    round_trip_done = true;
    pool_a->Put(buffer, a->owner_id());
  });

  Buffer* out = pool_a->Get(a->owner_id());
  MessageHeader header;
  header.src = 11;
  header.dst = 12;
  header.payload_length = 2048;
  header.request_id = 99;
  ASSERT_TRUE(WriteMessage(out, header));
  const uint64_t sent_checksum = Checksum(out->payload().subspan(MessageHeader::kWireSize));
  ASSERT_TRUE(a->SendFromEngine(1, out));
  cluster_->sim().RunFor(10 * kMillisecond);

  EXPECT_TRUE(round_trip_done);
  EXPECT_EQ(echo_checksum, sent_checksum);  // Payload intact end to end.
  EXPECT_EQ(EngineCounter(a, "engine_tx_messages"), 1u);
  EXPECT_EQ(EngineCounter(a, "engine_rx_messages"), 1u);
  EXPECT_EQ(EngineCounter(b, "engine_rx_messages"), 1u);
  EXPECT_EQ(EngineCounter(a, "engine_unroutable"), 0u);
}

TEST_F(NetworkEngineTest, ReplenisherKeepsSrqFedUnderTraffic) {
  NetworkEngine::Config config;
  config.initial_recv_buffers = 8;
  NetworkEngine* a = MakeEngine(0, config);
  NetworkEngine* b = MakeEngine(1, config);
  a->AttachTenant(1, 1);
  b->AttachTenant(1, 1);
  a->PrewarmPeer(b, 1, 2);
  b->PrewarmPeer(a, 1, 2);
  a->Start();
  b->Start();
  cluster_->routing().Place(12, cluster_->worker(1)->id());
  BufferPool* pool_a = cluster_->worker(0)->tenants().PoolOfTenant(1);
  BufferPool* pool_b = cluster_->worker(1)->tenants().PoolOfTenant(1);
  int received = 0;
  b->SetEngineEndpoint(12, [&](Buffer* buffer) {
    ++received;
    pool_b->Put(buffer, b->owner_id());
  });
  // Send 3x the initial posting; without replenishment this would RNR-fail.
  for (int i = 0; i < 24; ++i) {
    Buffer* out = pool_a->Get(a->owner_id());
    ASSERT_NE(out, nullptr);
    MessageHeader header;
    header.src = 11;
    header.dst = 12;
    header.payload_length = 64;
    header.request_id = static_cast<uint64_t>(i);
    WriteMessage(out, header);
    cluster_->sim().Schedule(i * 50 * kMicrosecond, [a, out]() { a->SendFromEngine(1, out); });
  }
  cluster_->sim().RunFor(20 * kMillisecond);
  EXPECT_EQ(received, 24);
  EXPECT_EQ(RegistryCounter(cluster_->metrics(), "rnic_rnr_failures",
                            MetricLabels::Node(cluster_->worker(1)->id())),
            0u);
  // All of A's send buffers were recycled after completion.
  EXPECT_EQ(pool_a->in_use(), static_cast<size_t>(config.initial_recv_buffers));
}

TEST_F(NetworkEngineTest, OnPathModeStagesThroughSocDma) {
  NetworkEngine::Config on_path_config;
  on_path_config.on_path = true;
  NetworkEngine* a = MakeEngine(0, on_path_config);
  NetworkEngine* b = MakeEngine(1, on_path_config);
  a->AttachTenant(1, 1);
  b->AttachTenant(1, 1);
  a->PrewarmPeer(b, 1, 2);
  b->Start();
  a->Start();
  cluster_->routing().Place(12, cluster_->worker(1)->id());
  BufferPool* pool_a = cluster_->worker(0)->tenants().PoolOfTenant(1);
  BufferPool* pool_b = cluster_->worker(1)->tenants().PoolOfTenant(1);
  bool delivered = false;
  b->SetEngineEndpoint(12, [&](Buffer* buffer) {
    delivered = true;
    pool_b->Put(buffer, b->owner_id());
  });
  Buffer* out = pool_a->Get(a->owner_id());
  MessageHeader header;
  header.src = 11;
  header.dst = 12;
  header.payload_length = 1024;
  WriteMessage(out, header);
  a->SendFromEngine(1, out);
  cluster_->sim().RunFor(5 * kMillisecond);
  EXPECT_TRUE(delivered);
  // TX staged on the sender's SoC DMA, RX on the receiver's.
  EXPECT_EQ(cluster_->worker(0)->dpu()->soc_dma_transfers(), 1u);
  EXPECT_EQ(cluster_->worker(1)->dpu()->soc_dma_transfers(), 1u);
}

TEST_F(NetworkEngineTest, UnroutableDestinationRecyclesBuffer) {
  NetworkEngine* a = MakeEngine(0);
  a->AttachTenant(1, 1);
  a->Start();
  BufferPool* pool_a = cluster_->worker(0)->tenants().PoolOfTenant(1);
  const size_t in_use_before = pool_a->in_use();
  Buffer* out = pool_a->Get(a->owner_id());
  MessageHeader header;
  header.src = 11;
  header.dst = 999;  // Never placed.
  header.payload_length = 64;
  WriteMessage(out, header);
  a->SendFromEngine(1, out);
  cluster_->sim().RunFor(kMillisecond);
  EXPECT_GE(EngineCounter(a, "engine_unroutable"), 1u);
  EXPECT_EQ(pool_a->in_use(), in_use_before);  // Recycled, not leaked.
}

TEST_F(NetworkEngineTest, CneRunsOnHostCoreWithoutDpu) {
  NetworkEngine::Config config;
  config.kind = NetworkEngine::Kind::kCne;
  NetworkEngine* engine = MakeEngine(0, config);
  EXPECT_TRUE(engine->AttachTenant(1, 1));
  EXPECT_EQ(engine->comch(), nullptr);
  EXPECT_TRUE(engine->worker_core()->pinned());
  // The worker core is one of the node's host cores.
  bool is_host_core = false;
  for (int i = 0; i < cluster_->worker(0)->host_core_count(); ++i) {
    is_host_core |= engine->worker_core() == &cluster_->worker(0)->host_core(i);
  }
  EXPECT_TRUE(is_host_core);
}

TEST_F(NetworkEngineTest, DwrrSchedulerSharesEngineBandwidthByWeight) {
  // Two tenants, weights 3:1, both backlogged at one engine: served counts
  // follow the weights.
  cluster_->CreateTenantPools(2, 512, 8192);
  NetworkEngine* a = MakeEngine(0);
  NetworkEngine* b = MakeEngine(1);
  for (const TenantId tenant : {1u, 2u}) {
    a->AttachTenant(tenant, tenant == 1 ? 3 : 1);
    b->AttachTenant(tenant, tenant == 1 ? 3 : 1);
    a->PrewarmPeer(b, tenant, 2);
  }
  a->Start();
  b->Start();
  cluster_->routing().Place(12, cluster_->worker(1)->id());
  BufferPool* pool1 = cluster_->worker(0)->tenants().PoolOfTenant(1);
  BufferPool* pool2 = cluster_->worker(0)->tenants().PoolOfTenant(2);
  b->SetEngineEndpoint(12, [&](Buffer* buffer) {
    cluster_->worker(1)->tenants().PoolById(buffer->pool)->Put(buffer, b->owner_id());
  });
  // Enqueue 200 messages per tenant back to back (backlog at the scheduler).
  for (int i = 0; i < 200; ++i) {
    for (BufferPool* pool : {pool1, pool2}) {
      Buffer* out = pool->Get(a->owner_id());
      ASSERT_NE(out, nullptr);
      MessageHeader header;
      header.src = 11;
      header.dst = 12;
      header.payload_length = 1024;
      WriteMessage(out, header);
      a->SendFromEngine(pool->tenant(), out);
    }
  }
  // Run briefly — long enough to serve many while both queues stay backlogged.
  cluster_->sim().RunFor(150 * kMicrosecond);
  ASSERT_GT(a->scheduler().pending(), 0u) << "queues drained; shorten the window";
  const uint64_t served1 = a->TenantServed(1);
  const uint64_t served2 = a->TenantServed(2);
  ASSERT_GT(served2, 2u);
  const double ratio = static_cast<double>(served1) / static_cast<double>(served2);
  EXPECT_NEAR(ratio, 3.0, 0.8);
}

}  // namespace
}  // namespace nadino
