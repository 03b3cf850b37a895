// Ingress integration beyond gateway_test.cc: RSS spreading across multiple
// workers, the scale-up pause semantics, per-worker RDMA paths, and mixed
// routes through one gateway.

#include <gtest/gtest.h>

#include "src/core/experiments.h"
#include "tests/registry_read.h"

namespace nadino {
namespace {

class IngressIntegrationTest : public ::testing::Test {
 protected:
  void Build(int initial_workers, bool autoscale = false) {
    ClusterConfig config;
    config.worker_nodes = 1;
    cluster_ = std::make_unique<Cluster>(&cost_, config);
    cluster_->CreateTenantPools(1, 2048, 8192);
    dataplane_ = std::make_unique<NadinoDataPlane>(cluster_->env(), &cluster_->routing(),
                                                   NadinoDataPlane::Options{});
    engine_ = dataplane_->AddWorkerNode(cluster_->worker(0));
    dataplane_->AttachTenant(1, 1);
    dataplane_->Start();
    executor_ = std::make_unique<ChainExecutor>(cluster_->env(), dataplane_.get());
    for (const ChainId chain : {10u, 11u}) {
      ChainSpec spec;
      spec.id = chain;
      spec.tenant = 1;
      spec.entry = 20 + chain;
      FunctionBehavior echo;
      echo.compute = 3 * kMicrosecond;
      echo.response_payload = chain == 10 ? 128 : 1024;
      spec.behaviors[spec.entry] = echo;
      executor_->RegisterChain(spec);
      functions_.push_back(std::make_unique<FunctionRuntime>(
          spec.entry, 1, "echo" + std::to_string(chain), cluster_->worker(0),
          cluster_->worker(0)->AllocateCore(),
          cluster_->worker(0)->tenants().PoolOfTenant(1)));
      dataplane_->RegisterFunction(functions_.back().get());
      executor_->AttachFunction(functions_.back().get());
    }
    IngressGateway::Options options;
    options.mode = IngressMode::kNadino;
    options.tenant = 1;
    options.initial_workers = initial_workers;
    options.autoscale = autoscale;
    options.max_workers = 6;
    gateway_ = std::make_unique<IngressGateway>(cluster_->env(), cluster_->ingress(), &cluster_->routing(),
                                                dataplane_.get(), executor_.get(), options);
    gateway_labels_ = {.node = cluster_->ingress()->id(), .engine = options.engine_id};
    gateway_->AddRoute("/small", 10, 30);
    gateway_->AddRoute("/large", 11, 31);
    gateway_->ConnectWorkerEngines({engine_});
  }

  // gateway_* counter `name` of the gateway, read strictly from the registry.
  uint64_t GatewayCounter(const std::string& name) const {
    return RegistryCounter(cluster_->metrics(), name, gateway_labels_);
  }

  CostModel cost_ = CostModel::Default();
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<NadinoDataPlane> dataplane_;
  NetworkEngine* engine_ = nullptr;
  std::unique_ptr<ChainExecutor> executor_;
  std::vector<std::unique_ptr<FunctionRuntime>> functions_;
  std::unique_ptr<IngressGateway> gateway_;
  MetricLabels gateway_labels_;
};

TEST_F(IngressIntegrationTest, MultipleWorkersAllServeTraffic) {
  Build(/*initial_workers=*/3);
  Tracer tracer(&cluster_->sim());
  cluster_->env().SetTracer(&tracer);
  int done = 0;
  for (uint32_t client = 0; client < 60; ++client) {
    gateway_->SubmitRequest(client, "/small", 128, [&]() { ++done; });
  }
  cluster_->sim().RunFor(100 * kMillisecond);
  EXPECT_EQ(done, 60);
  // RSS spread the 60 clients over all three workers.
  std::set<uint32_t> workers_seen;
  for (const TraceEvent& event :
       tracer.Filter([](const TraceEvent& e) { return e.label == "http_request"; })) {
    workers_seen.insert(event.actor);
  }
  EXPECT_EQ(workers_seen.size(), 3u);
}

TEST_F(IngressIntegrationTest, SameClientSticksToOneWorker) {
  Build(3);
  Tracer tracer(&cluster_->sim());
  cluster_->env().SetTracer(&tracer);
  int done = 0;
  std::function<void()> next = [&]() {
    if (++done < 10) {
      gateway_->SubmitRequest(/*client_id=*/7, "/small", 128, next);
    }
  };
  gateway_->SubmitRequest(7, "/small", 128, next);
  cluster_->sim().RunFor(100 * kMillisecond);
  std::set<uint32_t> workers_seen;
  for (const TraceEvent& event :
       tracer.Filter([](const TraceEvent& e) { return e.label == "http_request"; })) {
    workers_seen.insert(event.actor);
  }
  EXPECT_EQ(workers_seen.size(), 1u);  // Connection affinity via RSS hash.
}

TEST_F(IngressIntegrationTest, EnvTracerRecordsRequestAndResponse) {
  Build(2);
  Tracer tracer(&cluster_->sim());
  cluster_->env().SetTracer(&tracer);
  int done = 0;
  for (uint32_t client = 0; client < 5; ++client) {
    gateway_->SubmitRequest(client, "/large", 64, [&]() { ++done; });
  }
  cluster_->sim().RunFor(100 * kMillisecond);
  EXPECT_EQ(done, 5);
  EXPECT_EQ(tracer.CountLabel("http_request"), 5u);
  EXPECT_EQ(tracer.CountLabel("http_response"), 5u);
  // The response event carries the chain's response body size.
  const auto responses =
      tracer.Filter([](const TraceEvent& e) { return e.label == "http_response"; });
  ASSERT_EQ(responses.size(), 5u);
  EXPECT_EQ(responses[0].category, TraceCategory::kIngress);
  EXPECT_EQ(responses[0].arg1, 1024u);
}

TEST_F(IngressIntegrationTest, MixedRoutesResolveToDistinctChains) {
  Build(2);
  uint32_t small_done = 0;
  uint32_t large_done = 0;
  for (uint32_t client = 0; client < 10; ++client) {
    gateway_->SubmitRequest(client, "/small", 64, [&]() { ++small_done; });
    gateway_->SubmitRequest(client + 100, "/large", 64, [&]() { ++large_done; });
  }
  cluster_->sim().RunFor(100 * kMillisecond);
  EXPECT_EQ(small_done, 10u);
  EXPECT_EQ(large_done, 10u);
  EXPECT_EQ(functions_[0]->messages_received(), 10u);
  EXPECT_EQ(functions_[1]->messages_received(), 10u);
  EXPECT_EQ(GatewayCounter("gateway_http_errors"), 0u);
}

TEST_F(IngressIntegrationTest, ScaleUpPausesThenResumesService) {
  Build(1, /*autoscale=*/true);
  ClosedLoopClients::Options options;
  options.num_clients = 40;
  options.path = "/small";
  options.payload_bytes = 128;
  ClosedLoopClients clients(cluster_->env(), gateway_.get(), options);
  clients.Start();
  cluster_->sim().RunFor(3 * kSecond);
  EXPECT_GT(GatewayCounter("gateway_scale_ups"), 0u);
  EXPECT_GT(gateway_->active_workers(), 1);
  // Service recovered after the restart pause: throughput keeps flowing.
  const uint64_t before = clients.completed();
  cluster_->sim().RunFor(kSecond);
  EXPECT_GT(clients.completed(), before + 1000);
}

TEST_F(IngressIntegrationTest, IngressPoolConservedAcrossTraffic) {
  Build(2);
  BufferPool* pool = cluster_->ingress()->tenants().PoolOfTenant(1);
  ASSERT_NE(pool, nullptr);
  const size_t in_use_baseline = pool->in_use();
  int done = 0;
  for (uint32_t client = 0; client < 50; ++client) {
    gateway_->SubmitRequest(client, "/large", 512, [&]() { ++done; });
  }
  cluster_->sim().RunFor(200 * kMillisecond);
  EXPECT_EQ(done, 50);
  EXPECT_EQ(pool->in_use(), in_use_baseline);  // All request buffers recycled.
  EXPECT_EQ(pool->stats().ownership_violations, 0u);
}

}  // namespace
}  // namespace nadino
