// Tests for the media-pipeline application: stage ordering, large-payload
// integrity, zero-copy accounting, and frame-size scaling.

#include "src/apps/pipeline.h"

#include <gtest/gtest.h>

#include "src/core/experiments.h"
#include "src/runtime/message_header.h"
#include "tests/registry_read.h"

namespace nadino {
namespace {

class PipelineTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  struct Deployment {
    std::unique_ptr<Cluster> cluster;
    std::unique_ptr<NadinoDataPlane> dataplane;
    std::unique_ptr<ChainExecutor> executor;
    std::vector<std::unique_ptr<FunctionRuntime>> stages;
    std::unique_ptr<FunctionRuntime> client;
    PipelineSpec spec;
  };

  Deployment Deploy(uint32_t frame_bytes) {
    Deployment d;
    ClusterConfig config;
    config.worker_nodes = 2;
    config.with_ingress_node = false;
    d.cluster = std::make_unique<Cluster>(&cost_, config);
    d.spec = BuildPipelineSpec(frame_bytes);
    d.cluster->CreateTenantPools(d.spec.tenant, 1024, frame_bytes + 4096);
    d.dataplane = std::make_unique<NadinoDataPlane>(d.cluster->env(), &d.cluster->routing(),
                                                    NadinoDataPlane::Options{});
    d.dataplane->AddWorkerNode(d.cluster->worker(0));
    d.dataplane->AddWorkerNode(d.cluster->worker(1));
    d.dataplane->AttachTenant(d.spec.tenant, 1);
    d.dataplane->Start();
    d.executor = std::make_unique<ChainExecutor>(d.cluster->env(), d.dataplane.get());
    d.executor->RegisterChain(d.spec.chain);
    for (size_t i = 0; i < d.spec.stages.size(); ++i) {
      Node* node = d.cluster->worker(static_cast<int>(i % 2));  // Alternate nodes.
      d.stages.push_back(std::make_unique<FunctionRuntime>(
          d.spec.stages[i], d.spec.tenant, "stage" + std::to_string(i), node,
          node->AllocateCore(), node->tenants().PoolOfTenant(d.spec.tenant)));
      d.dataplane->RegisterFunction(d.stages.back().get());
      d.executor->AttachFunction(d.stages.back().get());
    }
    d.client = std::make_unique<FunctionRuntime>(
        30, d.spec.tenant, "client", d.cluster->worker(0),
        d.cluster->worker(0)->AllocateCore(),
        d.cluster->worker(0)->tenants().PoolOfTenant(d.spec.tenant));
    d.dataplane->RegisterFunction(d.client.get());
    return d;
  }

  CostModel cost_ = CostModel::Default();
};

TEST_P(PipelineTest, FrameFlowsThroughAllStagesZeroCopy) {
  const uint32_t frame = GetParam();
  Deployment d = Deploy(frame);
  bool done = false;
  uint32_t response_bytes = 0;
  d.client->SetHandler([&](FunctionRuntime& fn, Buffer* buffer) {
    const auto header = ReadMessage(*buffer);
    ASSERT_TRUE(header.has_value()) << "corruption at frame " << frame;
    response_bytes = header->payload_length;
    done = true;
    fn.pool()->Put(buffer, fn.owner_id());
  });
  Buffer* request = d.client->pool()->Get(d.client->owner_id());
  ASSERT_NE(request, nullptr);
  MessageHeader header;
  header.chain = d.spec.chain.id;
  header.src = 30;
  header.dst = d.spec.chain.entry;
  header.payload_length = frame;
  header.request_id = d.executor->NextRequestId();
  ASSERT_TRUE(WriteMessage(request, header));
  ASSERT_TRUE(d.dataplane->Send(d.client.get(), request));
  d.cluster->sim().RunFor(kSecond);

  EXPECT_TRUE(done);
  EXPECT_EQ(response_bytes, 256u);  // Ingest's completion record.
  EXPECT_EQ(d.executor->errors(), 0u);
  EXPECT_EQ(RegistryCounter(d.cluster->metrics(), "dataplane_payload_copies"), 0u);
  // Every stage saw the frame exactly once (plus responses at callers).
  EXPECT_GE(d.stages[0]->messages_received(), 1u);  // Ingest: request + resp.
  EXPECT_GE(d.stages[1]->messages_received(), 1u);
  EXPECT_GE(d.stages[2]->messages_received(), 1u);
  EXPECT_EQ(d.stages[3]->messages_received(), 1u);  // Encode is the leaf.
}

INSTANTIATE_TEST_SUITE_P(FrameSizes, PipelineTest,
                         ::testing::Values(4096u, 16384u, 65536u, 262144u));

TEST(PipelineSpecTest, StagesFormALinearChain) {
  const PipelineSpec spec = BuildPipelineSpec(65536);
  EXPECT_EQ(spec.stages.size(), 4u);
  EXPECT_EQ(spec.chain.ExpectedExchanges(), 6u);  // 3 inner calls x 2.
  // Each non-leaf stage calls exactly the next stage.
  for (size_t i = 0; i + 1 < spec.stages.size(); ++i) {
    const FunctionBehavior& b = spec.chain.behaviors.at(spec.stages[i]);
    ASSERT_EQ(b.calls.size(), 1u);
    EXPECT_EQ(b.calls[0].callee, spec.stages[i + 1]);
  }
  EXPECT_TRUE(spec.chain.behaviors.at(spec.stages.back()).calls.empty());
}

TEST(PipelineSpecTest, ComputeScalesWithFrameSize) {
  const PipelineSpec small = BuildPipelineSpec(4096);
  const PipelineSpec large = BuildPipelineSpec(262144);
  EXPECT_GT(large.chain.behaviors.at(kPipelineDecode).compute,
            small.chain.behaviors.at(kPipelineDecode).compute * 10);
}

}  // namespace
}  // namespace nadino
