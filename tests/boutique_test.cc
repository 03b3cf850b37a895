// Tests for the Online Boutique application spec and its execution over the
// NADINO data plane with the paper's two-node placement.

#include "src/apps/boutique.h"

#include <gtest/gtest.h>

#include "src/baselines/capabilities.h"
#include "src/core/experiments.h"
#include "src/runtime/message_header.h"

namespace nadino {
namespace {

TEST(BoutiqueSpecTest, HasTenFunctions) {
  const BoutiqueSpec spec = BuildBoutiqueSpec();
  EXPECT_EQ(spec.functions.size(), 10u);
}

TEST(BoutiqueSpecTest, HotspotPlacementMatchesPaper) {
  const BoutiqueSpec spec = BuildBoutiqueSpec();
  std::map<FunctionId, int> group;
  for (const BoutiqueFunction& fn : spec.functions) {
    group[fn.id] = fn.placement_group;
  }
  // Frontend, Checkout, Recommendation on one node; everything else on the
  // other (section 4.3).
  EXPECT_EQ(group[kFrontend], 0);
  EXPECT_EQ(group[kCheckout], 0);
  EXPECT_EQ(group[kRecommendation], 0);
  EXPECT_EQ(group[kProductCatalog], 1);
  EXPECT_EQ(group[kCart], 1);
  EXPECT_EQ(group[kPayment], 1);
}

TEST(BoutiqueSpecTest, EvaluatedChainsExceedElevenExchanges) {
  const BoutiqueSpec spec = BuildBoutiqueSpec();
  for (const ChainId chain : {kHomeQueryChain, kViewCartChain, kProductQueryChain}) {
    const ChainSpec* c = nullptr;
    for (const ChainSpec& candidate : spec.chains) {
      if (candidate.id == chain) {
        c = &candidate;
      }
    }
    ASSERT_NE(c, nullptr);
    EXPECT_GT(c->ExpectedExchanges(), 11u) << c->name;
  }
}

TEST(BoutiqueSpecTest, AllChainBehaviorsReferToDeclaredFunctions) {
  const BoutiqueSpec spec = BuildBoutiqueSpec();
  std::set<FunctionId> declared;
  for (const BoutiqueFunction& fn : spec.functions) {
    declared.insert(fn.id);
  }
  for (const ChainSpec& chain : spec.chains) {
    EXPECT_TRUE(declared.count(chain.entry)) << chain.name;
    for (const auto& [fn, behavior] : chain.behaviors) {
      EXPECT_TRUE(declared.count(fn)) << chain.name;
      for (const CallSpec& call : behavior.calls) {
        EXPECT_TRUE(declared.count(call.callee)) << chain.name;
        // Every callee has a behavior in this chain (no dangling calls).
        EXPECT_TRUE(chain.behaviors.count(call.callee)) << chain.name;
      }
    }
  }
}

TEST(BoutiqueRunTest, HomeQueryChainCompletesWithIntegrity) {
  // Assemble boutique over the NADINO data plane by hand and push a single
  // request through the Home Query chain, asserting the right functions ran.
  CostModel cost = CostModel::Default();
  ClusterConfig config;
  config.worker_nodes = 2;
  config.with_ingress_node = false;
  Cluster cluster(&cost, config);
  const BoutiqueSpec spec = BuildBoutiqueSpec(1);
  cluster.CreateTenantPools(1, 1024, 8192);
  NadinoDataPlane dp(cluster.env(), &cluster.routing(), NadinoDataPlane::Options{});
  dp.AddWorkerNode(cluster.worker(0));
  dp.AddWorkerNode(cluster.worker(1));
  dp.AttachTenant(1, 1);
  dp.Start();
  ChainExecutor executor(cluster.env(), &dp);
  for (const ChainSpec& chain : spec.chains) {
    executor.RegisterChain(chain);
  }
  std::vector<std::unique_ptr<FunctionRuntime>> functions;
  for (const BoutiqueFunction& bf : spec.functions) {
    Node* node = cluster.worker(bf.placement_group);
    functions.push_back(std::make_unique<FunctionRuntime>(
        bf.id, 1, bf.name, node, node->AllocateCore(), node->tenants().PoolOfTenant(1)));
    dp.RegisterFunction(functions.back().get());
    executor.AttachFunction(functions.back().get());
  }
  FunctionRuntime client(99, 1, "client", cluster.worker(0), cluster.worker(0)->AllocateCore(),
                         cluster.worker(0)->tenants().PoolOfTenant(1));
  dp.RegisterFunction(&client);
  bool done = false;
  uint32_t response_bytes = 0;
  client.SetHandler([&](FunctionRuntime& fn, Buffer* buffer) {
    const auto header = ReadMessage(*buffer);
    ASSERT_TRUE(header.has_value());  // Integrity held across 12 exchanges.
    response_bytes = header->payload_length;
    done = true;
    fn.pool()->Put(buffer, fn.owner_id());
  });
  Buffer* request = client.pool()->Get(client.owner_id());
  MessageHeader header;
  header.chain = kHomeQueryChain;
  header.src = 99;
  header.dst = kFrontend;
  header.payload_length = 256;
  header.request_id = executor.NextRequestId();
  WriteMessage(request, header);
  ASSERT_TRUE(dp.Send(&client, request));
  cluster.sim().RunFor(100 * kMillisecond);

  EXPECT_TRUE(done);
  EXPECT_EQ(response_bytes, 1400u);  // Frontend's home-page response.
  EXPECT_EQ(executor.errors(), 0u);
  // The Home Query fan-out touched exactly these services.
  std::map<std::string, uint64_t> received;
  for (const auto& fn : functions) {
    received[fn->name()] = fn->messages_received();
  }
  EXPECT_EQ(received["frontend"], 6u);  // 1 request + 5 call responses.
  EXPECT_EQ(received["currency"], 1u);
  EXPECT_EQ(received["productcatalog"], 2u);  // Frontend + recommendation.
  EXPECT_EQ(received["cart"], 1u);
  EXPECT_EQ(received["recommendation"], 2u);  // Request + catalog response.
  EXPECT_EQ(received["ad"], 1u);
  EXPECT_EQ(received["payment"], 0u);
}

TEST(BoutiqueRouteTest, PathsAndChainsRoundTrip) {
  for (const BoutiqueRoute& route : BoutiqueRoutes()) {
    EXPECT_EQ(BoutiqueChain(route.path), route.chain) << route.path;
    EXPECT_EQ(BoutiquePath(route.chain), route.path);
  }
  // A path without a route names no chain (a typo must not run Home Query).
  EXPECT_EQ(BoutiqueChain("/cartt"), std::nullopt);
  EXPECT_EQ(BoutiqueChain("home"), std::nullopt);
}

struct FabricPathRun {
  std::string snapshot;
  uint64_t events = 0;
  uint64_t completed = 0;
};

// Home Query on the CNE deployment, driven by closed-loop HTTP clients for
// 30 simulated ms. An idle DirectSender changes only how the fabric
// schedules RNIC departures (an event per packet instead of none), never a
// delivery time.
FabricPathRun RunHomeQueryCne(bool attach_idle_sender) {
  ClusterConfig config;
  config.worker_nodes = 2;
  config.host_cores_per_node = 16;
  Testbed s(CostModel::Default(), config);
  const BoutiqueSpec spec = BuildBoutiqueSpec(1);
  IngressGateway& gateway = s.DeployBoutique(spec, SystemUnderTest::kNadinoCne);
  if (attach_idle_sender) {
    s.cluster().network().fabric().AttachDirectSender();
  }
  ClosedLoopClients::Options client_options;
  client_options.num_clients = 20;
  client_options.path = BoutiquePath(kHomeQueryChain);
  ClosedLoopClients clients(s.env(), &gateway, client_options);
  clients.Start();
  s.sim().RunFor(30 * kMillisecond);
  return {s.cluster().metrics().SnapshotJson(), s.sim().events_processed(),
          clients.completed()};
}

// The fabric's two paths (src/rdma/fabric.h) agree: reserving the uplink at
// post time and keeping a departure event give the same run, byte for byte.
TEST(BoutiqueRunTest, FabricDepartureFallbackMatchesPostTimeReservation) {
  const FabricPathRun reserved = RunHomeQueryCne(false);
  const FabricPathRun fallback = RunHomeQueryCne(true);
  EXPECT_GT(reserved.completed, 0u);
  EXPECT_EQ(reserved.completed, fallback.completed);
  EXPECT_EQ(reserved.snapshot, fallback.snapshot);
  EXPECT_GT(fallback.events, reserved.events) << "the sender did not force the fallback";
}

TEST(CapabilitiesTest, TableMatchesPaperShape) {
  const auto table = CapabilityTable();
  ASSERT_EQ(table.size(), 5u);
  const SystemCapabilities& nadino = table.back();
  EXPECT_EQ(nadino.system, "NADINO");
  // NADINO is the only row with every capability (Table 1).
  EXPECT_TRUE(nadino.multi_tenancy && nadino.distributed_zero_copy &&
              nadino.dpu_offloading && nadino.eliminates_proto_processing);
  for (size_t i = 0; i + 1 < table.size(); ++i) {
    EXPECT_FALSE(table[i].multi_tenancy) << table[i].system;
    EXPECT_FALSE(table[i].eliminates_proto_processing) << table[i].system;
  }
}

}  // namespace
}  // namespace nadino
