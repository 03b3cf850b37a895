// The WR-program compiler and interpreter (ChainExecutor::OffloadChain +
// src/rdma/wr_program.{h,cc}): compiled program shape, end-to-end on-NIC
// dispatch with zero software involvement, counted fallback to the software
// executor under injected wrprog_* faults, compiler eligibility rules, and
// uninstall restoring the software path.

#include "src/rdma/wr_program.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/fault.h"
#include "src/dne/nadino_dataplane.h"
#include "src/runtime/chain.h"
#include "tests/registry_read.h"

namespace nadino {
namespace {

constexpr TenantId kTenant = 5;
constexpr ChainId kChain = 40;
constexpr FunctionId kEntry = 101;  // 101 -> 102 -> 103, one hop per node.
constexpr FunctionId kClient = 30;

ChainSpec LinearChain() {
  ChainSpec spec;
  spec.id = kChain;
  spec.tenant = kTenant;
  spec.name = "wrprog";
  spec.entry = kEntry;
  for (FunctionId hop = kEntry; hop <= kEntry + 2; ++hop) {
    FunctionBehavior behavior;
    behavior.compute = 5 * kMicrosecond;
    behavior.response_payload = 128 + (hop - kEntry);  // Distinct per hop.
    if (hop != kEntry + 2) {
      behavior.calls.push_back(CallSpec{hop + 1, 512});
    }
    spec.behaviors[hop] = behavior;
  }
  return spec;
}

class WrProgramTest : public ::testing::Test {
 protected:
  void Deploy(const ChainSpec& spec, bool offload = true) {
    ClusterConfig config;
    config.worker_nodes = 3;
    config.with_ingress_node = false;
    cluster_ = std::make_unique<Cluster>(&cost_, config);
    cluster_->CreateTenantPools(kTenant, 1024, 8192);
    NadinoDataPlane::Options options;
    options.offload_chains = offload;
    dataplane_ = std::make_unique<NadinoDataPlane>(cluster_->env(), &cluster_->routing(),
                                                   options);
    for (int i = 0; i < 3; ++i) {
      dataplane_->AddWorkerNode(cluster_->worker(i));
    }
    dataplane_->AttachTenant(kTenant, 1);
    dataplane_->Start();
    executor_ = std::make_unique<ChainExecutor>(cluster_->env(), dataplane_.get());
    executor_->RegisterChain(spec);
    int node = 0;
    for (const auto& [fn_id, behavior] : spec.behaviors) {
      Node* home = cluster_->worker(node++ % 3);
      stages_.push_back(std::make_unique<FunctionRuntime>(
          fn_id, kTenant, "hop" + std::to_string(fn_id), home, home->AllocateCore(),
          home->tenants().PoolOfTenant(kTenant)));
      dataplane_->RegisterFunction(stages_.back().get());
      executor_->AttachFunction(stages_.back().get());
    }
    client_ = std::make_unique<FunctionRuntime>(
        kClient, kTenant, "client", cluster_->worker(0), cluster_->worker(0)->AllocateCore(),
        cluster_->worker(0)->tenants().PoolOfTenant(kTenant));
    dataplane_->RegisterFunction(client_.get());
  }

  // Sends one request into the chain and returns the response payload length
  // observed at the client (0 = no response).
  uint32_t RunOne() {
    uint32_t response = 0;
    client_->SetHandler([&](FunctionRuntime& fn, Buffer* buffer) {
      const auto header = ReadMessage(*buffer);
      EXPECT_TRUE(header.has_value());
      if (header.has_value()) {
        response = header->payload_length;
      }
      fn.pool()->Put(buffer, fn.owner_id());
    });
    Buffer* request = client_->pool()->Get(client_->owner_id());
    EXPECT_NE(request, nullptr);
    MessageHeader header;
    header.chain = kChain;
    header.src = kClient;
    header.dst = kEntry;
    header.payload_length = 512;
    header.request_id = executor_->NextRequestId();
    EXPECT_TRUE(WriteMessage(request, header));
    EXPECT_TRUE(dataplane_->Send(client_.get(), request));
    cluster_->sim().RunFor(kSecond);
    return response;
  }

  // Pool buffers out beyond the engines' standing posted-RECV credits
  // (RNIC-owned at quiesce by design): 0 when nothing leaked.
  uint64_t LeakedBuffers() {
    uint64_t leaked = 0;
    for (int i = 0; i < 3; ++i) {
      const uint64_t in_use = cluster_->worker(i)->tenants().PoolOfTenant(kTenant)->in_use();
      const uint64_t posted = cluster_->worker(i)->rnic().SrqOfTenant(kTenant).depth();
      leaked += in_use - std::min(in_use, posted);
    }
    return leaked;
  }

  // wrprog_* counter `name` summed over the nodes that run a WR-program
  // engine, each read strictly from the registry.
  uint64_t WrprogTotal(const std::string& name) {
    uint64_t total = 0;
    for (int i = 0; i < 3; ++i) {
      const NodeId node = cluster_->worker(i)->id();
      if (dataplane_->wr_programs(node) != nullptr) {
        total += RegistryCounter(cluster_->metrics(), name, MetricLabels::Node(node));
      }
    }
    return total;
  }

  CostModel cost_ = CostModel::Default();
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<NadinoDataPlane> dataplane_;
  std::unique_ptr<ChainExecutor> executor_;
  std::vector<std::unique_ptr<FunctionRuntime>> stages_;
  std::unique_ptr<FunctionRuntime> client_;
};

TEST_F(WrProgramTest, CompilerLowersLinearChainToThreeStepPrograms) {
  Deploy(LinearChain());
  SimDuration install_latency = 0;
  EXPECT_EQ(executor_->OffloadChain(kChain, &install_latency), 3u);
  EXPECT_GT(install_latency, 0);

  for (FunctionId hop = kEntry; hop <= kEntry + 2; ++hop) {
    WrProgramEngine* programs =
        dataplane_->wr_programs(stages_[hop - kEntry]->node()->id());
    ASSERT_NE(programs, nullptr);
    const WrProgram* program = programs->ProgramFor(kChain, hop);
    ASSERT_NE(program, nullptr) << "hop " << hop;
    EXPECT_EQ(program->tenant, kTenant);
    EXPECT_EQ(program->hop, hop);
    ASSERT_EQ(program->steps.size(), 3u);
    // Step 0: the conditional WAIT on the matching recv — CAS-gated on the
    // header's destination function, never surfacing a CQE.
    EXPECT_EQ(program->steps[0].wr.opcode, RdmaOpcode::kRecv);
    EXPECT_EQ(program->steps[0].edge, WrEdge::kConditional);
    EXPECT_EQ(program->steps[0].match, hop);
    EXPECT_FALSE(program->steps[0].wr.signaled);
    // Step 1: the lowered payload transform, dwelling for the hop's compute.
    EXPECT_EQ(program->steps[1].edge, WrEdge::kTriggered);
    EXPECT_EQ(program->steps[1].dwell, 5 * kMicrosecond);
    // Step 2: the unsignaled egress SEND (forward or response).
    EXPECT_EQ(program->steps[2].wr.opcode, RdmaOpcode::kSend);
    EXPECT_EQ(program->steps[2].edge, WrEdge::kTriggered);
    EXPECT_FALSE(program->steps[2].wr.signaled);
  }
}

TEST_F(WrProgramTest, OffloadedChainCompletesWithZeroSoftwareHops) {
  Deploy(LinearChain());
  ASSERT_EQ(executor_->OffloadChain(kChain), 3u);
  const uint32_t response = RunOne();
  // The entry's behavior answers the external client (response_payload of
  // hop kEntry = 128).
  EXPECT_EQ(response, 128u);
  EXPECT_EQ(executor_->requests_handled(), 0u);  // No software hop ran.
  EXPECT_EQ(executor_->errors(), 0u);
  EXPECT_EQ(WrprogTotal("wrprog_offloaded"), 3u);
  EXPECT_EQ(WrprogTotal("wrprog_responses"), 1u);
  EXPECT_EQ(WrprogTotal("wrprog_fallbacks"), 0u);
  EXPECT_EQ(WrprogTotal("wrprog_send_errors"), 0u);
  EXPECT_EQ(LeakedBuffers(), 0u);  // Every buffer recycled.
}

TEST_F(WrProgramTest, WrprogFaultDropFallsBackToSoftwareAndStillServes) {
  Deploy(LinearChain());
  ASSERT_EQ(executor_->OffloadChain(kChain), 3u);

  FaultSpec spec;
  spec.site = FaultSite::kWrProgTrigger;
  spec.action = FaultAction::kDrop;
  spec.probability = 1.0;
  spec.tenant = kTenant;
  spec.max_injections = 1;
  ASSERT_GE(cluster_->env().faults().Install(spec), 0);

  const uint32_t response = RunOne();
  // The declined hop ran in software; the rest of the chain still offloads
  // (or completes in software) and the client sees the same response.
  EXPECT_EQ(response, 128u);
  EXPECT_EQ(executor_->errors(), 0u);
  EXPECT_EQ(WrprogTotal("wrprog_fallbacks"), 1u);
  EXPECT_GE(executor_->requests_handled(), 1u);
  EXPECT_EQ(LeakedBuffers(), 0u);
}

TEST_F(WrProgramTest, FanOutChainIsRejectedByTheCompiler) {
  ChainSpec spec = LinearChain();
  // Give the entry a second call: no longer a linear segment.
  spec.behaviors[kEntry].calls.push_back(CallSpec{kEntry + 2, 256});
  Deploy(spec);
  EXPECT_EQ(executor_->OffloadChain(kChain), 0u);
  // Nothing half-installed: no engine holds a program for any hop.
  for (int i = 0; i < 3; ++i) {
    const WrProgramEngine* programs = dataplane_->wr_programs(cluster_->worker(i)->id());
    ASSERT_NE(programs, nullptr);
    for (FunctionId hop = kEntry; hop <= kEntry + 2; ++hop) {
      EXPECT_EQ(programs->ProgramFor(kChain, hop), nullptr);
    }
  }
  // The chain still executes fully in software.
  EXPECT_EQ(RunOne(), 128u);
  EXPECT_GE(executor_->requests_handled(), 3u);
}

TEST_F(WrProgramTest, RetryPolicyKeepsChainInSoftware) {
  Deploy(LinearChain());
  RetryPolicy policy;
  cluster_->env().slos().SetRetryPolicy(kTenant, policy);
  // Executor-level retries need software pending-state; the compiler must
  // refuse to take the chain out of the executor's hands.
  EXPECT_EQ(executor_->OffloadChain(kChain), 0u);
}

TEST_F(WrProgramTest, OffloadDisabledDataPlaneExposesNoEngines) {
  Deploy(LinearChain(), /*offload=*/false);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(dataplane_->wr_programs(cluster_->worker(i)->id()), nullptr);
  }
  EXPECT_EQ(executor_->OffloadChain(kChain), 0u);
  EXPECT_EQ(RunOne(), 128u);  // Software path untouched.
}

TEST_F(WrProgramTest, UninstallRestoresTheSoftwarePath) {
  Deploy(LinearChain());
  ASSERT_EQ(executor_->OffloadChain(kChain), 3u);
  for (FunctionId hop = kEntry; hop <= kEntry + 2; ++hop) {
    WrProgramEngine* programs =
        dataplane_->wr_programs(stages_[hop - kEntry]->node()->id());
    ASSERT_NE(programs, nullptr);
    programs->Uninstall(kChain, hop);
    EXPECT_EQ(programs->ProgramFor(kChain, hop), nullptr);
  }
  EXPECT_EQ(RunOne(), 128u);
  EXPECT_GE(executor_->requests_handled(), 3u);  // All hops back in software.
  EXPECT_EQ(WrprogTotal("wrprog_offloaded"), 0u);
}

}  // namespace
}  // namespace nadino
