// Tests for the baseline data planes: SPRIGHT's socket copies, FUYAO's
// separate RDMA pool + receiver-side copy, Junction's per-hop copies and
// scheduler core, NightCore's single-node engine-mediated bus.

#include "src/baselines/baseline_dataplane.h"

#include <gtest/gtest.h>

#include "src/core/experiments.h"
#include "src/runtime/message_header.h"
#include "tests/registry_read.h"

namespace nadino {
namespace {

class BaselineTest : public ::testing::TestWithParam<BaselineSystem> {
 protected:
  void Build(BaselineSystem system, int nodes = 2) {
    ClusterConfig config;
    config.worker_nodes = nodes;
    config.with_ingress_node = false;
    cluster_ = std::make_unique<Cluster>(&cost_, config);
    cluster_->CreateTenantPools(1, 512, 8192);
    dataplane_ = std::make_unique<BaselineDataPlane>(cluster_->env(), &cluster_->routing(), system, 1);
    for (int i = 0; i < nodes; ++i) {
      dataplane_->AddWorkerNode(cluster_->worker(i));
    }
    dataplane_->Start();
  }

  std::unique_ptr<FunctionRuntime> MakeFunction(FunctionId id, int node) {
    Node* n = cluster_->worker(node);
    auto fn = std::make_unique<FunctionRuntime>(id, 1, "fn", n, n->AllocateCore(),
                                                n->tenants().PoolOfTenant(1));
    dataplane_->RegisterFunction(fn.get());
    return fn;
  }

  // Sends a message and returns the checksum observed at the destination.
  uint64_t RoundTrip(FunctionRuntime* src, FunctionRuntime* dst, uint32_t payload) {
    uint64_t received = 0;
    dst->SetHandler([&](FunctionRuntime& fn, Buffer* buffer) {
      const auto header = ReadMessage(*buffer);
      if (header.has_value()) {
        received = header->payload_checksum;
      }
      fn.pool()->Put(buffer, fn.owner_id());
    });
    Buffer* out = src->pool()->Get(src->owner_id());
    MessageHeader header;
    header.src = src->id();
    header.dst = dst->id();
    header.payload_length = payload;
    header.request_id = 1;
    WriteMessage(out, header);
    sent_checksum_ = ReadMessage(*out)->payload_checksum;
    EXPECT_TRUE(dataplane_->Send(src, out));
    cluster_->sim().RunFor(50 * kMillisecond);
    return received;
  }

  CostModel cost_ = CostModel::Default();
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<BaselineDataPlane> dataplane_;
  uint64_t sent_checksum_ = 0;
};

TEST_P(BaselineTest, IntraNodeDeliveryPreservesPayload) {
  Build(GetParam());
  auto src = MakeFunction(11, 0);
  auto dst = MakeFunction(12, 0);
  const uint64_t received = RoundTrip(src.get(), dst.get(), 1024);
  EXPECT_EQ(received, sent_checksum_);
}

TEST_P(BaselineTest, InterNodeDeliveryPreservesPayload) {
  if (GetParam() == BaselineSystem::kNightcore) {
    GTEST_SKIP() << "NightCore has no inter-node data plane";
  }
  Build(GetParam());
  auto src = MakeFunction(11, 0);
  auto dst = MakeFunction(12, 1);
  const uint64_t received = RoundTrip(src.get(), dst.get(), 2048);
  EXPECT_EQ(received, sent_checksum_);
}

INSTANTIATE_TEST_SUITE_P(Systems, BaselineTest,
                         ::testing::Values(BaselineSystem::kSpright,
                                           BaselineSystem::kNightcore,
                                           BaselineSystem::kFuyao,
                                           BaselineSystem::kJunction),
                         [](const auto& info) {
                           switch (info.param) {
                             case BaselineSystem::kSpright:
                               return std::string("Spright");
                             case BaselineSystem::kNightcore:
                               return std::string("Nightcore");
                             case BaselineSystem::kFuyao:
                               return std::string("Fuyao");
                             case BaselineSystem::kJunction:
                               return std::string("Junction");
                           }
                           return std::string("unknown");
                         });

TEST(BaselineCopyTest, SprightCrossNodePaysTwoSocketCopies) {
  CostModel cost = CostModel::Default();
  ClusterConfig config;
  config.worker_nodes = 2;
  config.with_ingress_node = false;
  Cluster cluster(&cost, config);
  cluster.CreateTenantPools(1, 128, 8192);
  BaselineDataPlane dp(cluster.env(), &cluster.routing(), BaselineSystem::kSpright, 1);
  dp.AddWorkerNode(cluster.worker(0));
  dp.AddWorkerNode(cluster.worker(1));
  dp.Start();
  FunctionRuntime src(11, 1, "s", cluster.worker(0), cluster.worker(0)->AllocateCore(),
                      cluster.worker(0)->tenants().PoolOfTenant(1));
  FunctionRuntime dst(12, 1, "d", cluster.worker(1), cluster.worker(1)->AllocateCore(),
                      cluster.worker(1)->tenants().PoolOfTenant(1));
  dp.RegisterFunction(&src);
  dp.RegisterFunction(&dst);
  dst.SetHandler([](FunctionRuntime& fn, Buffer* b) { fn.pool()->Put(b, fn.owner_id()); });
  Buffer* out = src.pool()->Get(src.owner_id());
  MessageHeader header;
  header.src = 11;
  header.dst = 12;
  header.payload_length = 512;
  WriteMessage(out, header);
  dp.Send(&src, out);
  cluster.sim().RunFor(10 * kMillisecond);
  // user->kernel, kernel->user.
  EXPECT_EQ(RegistryCounter(cluster.metrics(), "dataplane_payload_copies"), 2u);

  // Intra-node SPRIGHT stays zero-copy.
  FunctionRuntime dst2(13, 1, "d2", cluster.worker(0), cluster.worker(0)->AllocateCore(),
                       cluster.worker(0)->tenants().PoolOfTenant(1));
  dp.RegisterFunction(&dst2);
  dst2.SetHandler([](FunctionRuntime& fn, Buffer* b) { fn.pool()->Put(b, fn.owner_id()); });
  Buffer* out2 = src.pool()->Get(src.owner_id());
  header.dst = 13;
  WriteMessage(out2, header);
  dp.Send(&src, out2);
  cluster.sim().RunFor(10 * kMillisecond);
  EXPECT_EQ(RegistryCounter(cluster.metrics(), "dataplane_payload_copies"), 2u);  // Unchanged.
}

TEST(BaselineCopyTest, FuyaoCrossNodePaysReceiverSideCopy) {
  CostModel cost = CostModel::Default();
  ClusterConfig config;
  config.worker_nodes = 2;
  config.with_ingress_node = false;
  Cluster cluster(&cost, config);
  cluster.CreateTenantPools(1, 128, 8192);
  BaselineDataPlane dp(cluster.env(), &cluster.routing(), BaselineSystem::kFuyao, 1);
  dp.AddWorkerNode(cluster.worker(0));
  dp.AddWorkerNode(cluster.worker(1));
  dp.Start();
  FunctionRuntime src(11, 1, "s", cluster.worker(0), cluster.worker(0)->AllocateCore(),
                      cluster.worker(0)->tenants().PoolOfTenant(1));
  FunctionRuntime dst(12, 1, "d", cluster.worker(1), cluster.worker(1)->AllocateCore(),
                      cluster.worker(1)->tenants().PoolOfTenant(1));
  dp.RegisterFunction(&src);
  dp.RegisterFunction(&dst);
  uint64_t received = 0;
  dst.SetHandler([&](FunctionRuntime& fn, Buffer* b) {
    const auto header = ReadMessage(*b);
    if (header.has_value()) {
      received = header->payload_checksum;
    }
    fn.pool()->Put(b, fn.owner_id());
  });
  Buffer* out = src.pool()->Get(src.owner_id());
  MessageHeader header;
  header.src = 11;
  header.dst = 12;
  header.payload_length = 1024;
  WriteMessage(out, header);
  const uint64_t sent = ReadMessage(*out)->payload_checksum;
  dp.Send(&src, out);
  cluster.sim().RunFor(20 * kMillisecond);
  EXPECT_EQ(received, sent);
  // Exactly one receiver-side copy (RDMA pool -> tenant shm pool).
  EXPECT_EQ(RegistryCounter(cluster.metrics(), "dataplane_payload_copies"), 1u);
  EXPECT_EQ(dp.fuyao_copies(), 1u);
  // The receiver-side poller busy-spins on its dedicated core.
  EXPECT_TRUE(cluster.worker(1)->host_core(0).pinned());
}

TEST(BaselineCopyTest, JunctionDedicatesPinnedSchedulerCorePerNode) {
  CostModel cost = CostModel::Default();
  ClusterConfig config;
  config.worker_nodes = 2;
  config.with_ingress_node = false;
  Cluster cluster(&cost, config);
  cluster.CreateTenantPools(1, 128, 8192);
  BaselineDataPlane dp(cluster.env(), &cluster.routing(), BaselineSystem::kJunction, 1);
  dp.AddWorkerNode(cluster.worker(0));
  dp.AddWorkerNode(cluster.worker(1));
  dp.Start();
  cluster.sim().RunFor(kMillisecond);
  // One scheduler core pinned per node, contributing nothing but burn.
  EXPECT_DOUBLE_EQ(dp.EngineUtilizationCores(), 2.0);
}

TEST(BaselineCopyTest, NightcoreInterNodeSendFailsGracefully) {
  CostModel cost = CostModel::Default();
  ClusterConfig config;
  config.worker_nodes = 2;
  config.with_ingress_node = false;
  Cluster cluster(&cost, config);
  cluster.CreateTenantPools(1, 128, 8192);
  BaselineDataPlane dp(cluster.env(), &cluster.routing(), BaselineSystem::kNightcore,
                       1);
  dp.AddWorkerNode(cluster.worker(0));
  dp.AddWorkerNode(cluster.worker(1));
  FunctionRuntime src(11, 1, "s", cluster.worker(0), cluster.worker(0)->AllocateCore(),
                      cluster.worker(0)->tenants().PoolOfTenant(1));
  FunctionRuntime dst(12, 1, "d", cluster.worker(1), cluster.worker(1)->AllocateCore(),
                      cluster.worker(1)->tenants().PoolOfTenant(1));
  dp.RegisterFunction(&src);
  dp.RegisterFunction(&dst);
  Buffer* out = src.pool()->Get(src.owner_id());
  MessageHeader header;
  header.src = 11;
  header.dst = 12;
  header.payload_length = 64;
  WriteMessage(out, header);
  EXPECT_FALSE(dp.Send(&src, out));
  EXPECT_EQ(RegistryCounter(cluster.metrics(), "dataplane_drops"), 1u);
}

}  // namespace
}  // namespace nadino
