// Allocation bounds of the message path (DESIGN.md §3c): continuations move
// through FifoResource jobs, Link deliveries and Fabric stages inline,
// packets travel as handles into the network's packet pool, and per-message
// ids live in flat tables, so in steady state a job, a transfer, a SEND WR
// and a whole ingress or DNE echo request touch the global allocator zero
// times. This file overrides the global operator new with a counting shim,
// so it lives in its own test binary.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/core/env.h"
#include "src/core/experiments.h"
#include "src/mem/tenant_registry.h"
#include "src/rdma/fabric.h"
#include "src/rdma/rdma_engine.h"
#include "src/runtime/routing_table.h"
#include "src/sim/link.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"
#include "tests/registry_read.h"

namespace {

std::uint64_t g_news = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_news;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace nadino {
namespace {

// A capture of exactly the size under test.
struct Capture96 {
  uint64_t* sink;
  uint64_t words[11];
  void operator()() const { *sink += words[0]; }
};
static_assert(sizeof(Capture96) == 96);

TEST(RdmaAllocTest, FifoResourceSubmitAllocatesNothing) {
  Simulator sim;
  FifoResource core(&sim, "core");
  uint64_t sink = 0;
  Capture96 job{&sink, {1}};
  // Warm-up: grow the event slab and the job ring to the working set.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 256; ++i) {
      core.Submit(10, job);
    }
    sim.Run();
  }
  const uint64_t before = g_news;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 200; ++i) {
      core.Submit(10, job);
    }
    sim.Run();
  }
  EXPECT_EQ(g_news - before, 0u) << "steady-state Submit touched the allocator";
  EXPECT_EQ(sink, 4u * 256u + 200u * 200u);
  EXPECT_EQ(core.callback_spills(), 0u);
}

TEST(RdmaAllocTest, LinkTransferAllocatesNothing) {
  Simulator sim;
  Link link(&sim, 200.0, 500);
  uint64_t delivered = 0;
  // A capture as large as a Link delivery holds inline.
  struct Delivery {
    uint64_t* sink;
    uint64_t pad[9];
    void operator()() const { ++*sink; }
  };
  static_assert(sizeof(Delivery) == Link::Callback::kInlineBytes);
  const Delivery delivery{&delivered, {}};
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 256; ++i) {
      link.Transfer(1024, delivery);
    }
    sim.Run();
  }
  const uint64_t before = g_news;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 200; ++i) {
      link.Transfer(1024, delivery);
    }
    sim.Run();
  }
  EXPECT_EQ(g_news - before, 0u) << "steady-state Transfer touched the allocator";
  EXPECT_EQ(delivered, 4u * 256u + 200u * 200u);
  EXPECT_EQ(link.callback_spills(), 0u);
}

// Every data-plane send resolves its destination through the routing
// table; rotating over replicas reads the placement list in place.
TEST(RdmaAllocTest, ReplicaResolutionAllocatesNothing) {
  constexpr FunctionId kFn = 7;
  RoutingTable routing(kDefaultSeed);
  for (NodeId node = 1; node <= 3; ++node) {
    routing.Place(kFn, node);
  }
  for (int i = 0; i < 16; ++i) {
    routing.ResolveFor(kFn);
  }
  const uint64_t before = g_news;
  for (int i = 0; i < 3000; ++i) {
    routing.ResolveFor(kFn);
  }
  EXPECT_EQ(g_news - before, 0u) << "steady-state ResolveFor touched the allocator";
  uint64_t resolved = 0;
  for (NodeId node = 1; node <= 3; ++node) {
    EXPECT_GT(routing.ResolvedCount(kFn, node), 0u) << "node " << node;
    resolved += routing.ResolvedCount(kFn, node);
  }
  EXPECT_EQ(resolved, 3016u);
}

// NadinoDataPlane::Send previews the destination with PeekFor before the
// engine commits it. The preview only reads the rotor, so it allocates
// nothing, also when the replica set changed since the last pick.
TEST(RdmaAllocTest, WarmReplicaPeekAllocatesNothing) {
  constexpr FunctionId kFn = 7;
  RoutingTable routing(kDefaultSeed);
  for (NodeId node = 1; node <= 3; ++node) {
    routing.Place(kFn, node);
  }
  routing.ResolveFor(kFn);  // Sets the rotor.
  uint64_t before = g_news;
  NodeId peeked = kInvalidNode;
  for (int i = 0; i < 1000; ++i) {
    peeked = routing.PeekFor(kFn);
  }
  EXPECT_EQ(g_news - before, 0u) << "PeekFor touched the allocator";
  routing.Place(kFn, 4);  // The rotor carries over to the grown set.
  before = g_news;
  for (int i = 0; i < 1000; ++i) {
    peeked = routing.PeekFor(kFn);
  }
  EXPECT_EQ(g_news - before, 0u) << "PeekFor of a changed replica set touched the allocator";
  EXPECT_EQ(routing.ResolveFor(kFn), peeked);
}

TEST(RdmaAllocTest, FabricSendWithInlineDeliveryAllocatesNothing) {
  CostModel cost = CostModel::Default();
  Simulator sim;
  Env env(&sim, &cost);
  Fabric fabric(env);
  fabric.AttachNode(1);
  fabric.AttachNode(2);
  Fabric::DirectSender sender = fabric.AttachDirectSender();
  uint64_t delivered = 0;
  auto delivery = [&delivered]() { ++delivered; };
  for (int i = 0; i < 1024; ++i) {
    sender.Send(1, 2, 256, delivery);
  }
  sim.Run();
  const uint64_t before = g_news;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 200; ++i) {
      sender.Send(1, 2, 256, delivery);
    }
    sim.Run();
  }
  EXPECT_EQ(g_news - before, 0u) << "steady-state Send touched the allocator";
  EXPECT_EQ(delivered, 1024u + 100u * 200u);
  EXPECT_EQ(fabric.callback_spills(), 0u);
}

// SEND ping: one WR in flight, the receiver reposts each consumed buffer.
TEST(RdmaAllocTest, WarmSendWorkRequestAllocatesNothing) {
  constexpr TenantId kTenant = 5;
  CostModel cost = CostModel::Default();
  Simulator sim;
  Env env(&sim, &cost);
  RdmaNetwork network(env);
  RdmaEngine a(env, 1, &network);
  RdmaEngine b(env, 2, &network);
  TenantRegistry registry_a;
  TenantRegistry registry_b;
  BufferPool* pool_a = registry_a.CreatePool(kTenant, "a", {8, 4096});
  BufferPool* pool_b = registry_b.CreatePool(kTenant, "b", {64, 4096});
  const auto [qp_a, qp_b] = RdmaEngine::CreateConnectedPair(a, b, kTenant);
  (void)qp_b;
  for (uint64_t wr = 0; wr < 64; ++wr) {
    Buffer* buffer = pool_b->Get(OwnerId::External(2));
    ASSERT_NE(buffer, nullptr);
    ASSERT_TRUE(b.PostRecvBuffer(pool_b, buffer, OwnerId::External(2), wr));
  }
  b.cq().SetHandler([&](const Completion& cqe) {
    Buffer* buffer = cqe.buffer;
    pool_b->Transfer(buffer, OwnerId::Rnic(2), OwnerId::External(2));
    b.PostRecvBuffer(pool_b, buffer, OwnerId::External(2), cqe.wr_id);
  });
  uint64_t completions = 0;
  a.cq().SetHandler([&](const Completion& cqe) {
    completions += cqe.status == WrStatus::kSuccess ? 1 : 0;
  });
  Buffer* src = pool_a->Get(OwnerId::Rnic(1));
  src->FillPattern(3, 256);

  uint64_t wr_id = 0;
  auto post_and_drain = [&]() {
    ASSERT_TRUE(a.PostSend(qp_a, *src, ++wr_id));
    sim.Run();
  };
  for (int i = 0; i < 2000; ++i) {
    post_and_drain();
  }
  constexpr uint64_t kWrs = 20000;
  const uint64_t before = g_news;
  for (uint64_t i = 0; i < kWrs; ++i) {
    post_and_drain();
  }
  const uint64_t allocations = g_news - before;
  EXPECT_EQ(allocations, 0u) << static_cast<double>(allocations) / kWrs
                             << " allocations per SEND WR";
  EXPECT_EQ(completions, 2000u + kWrs);
  EXPECT_EQ(RegistryCounter(env.metrics(), "rnic_recv_completions", MetricLabels::Node(b.node())),
            2000u + kWrs);
}

// Steady-state allocations per completed request of a whole experiment. Setup
// is deterministic, so running the same experiment for two durations and
// dividing the difference in allocations by the difference in completed
// requests cancels it out. `run(duration)` returns the completed requests.
template <typename Run>
double AllocationsPerRequest(Run run, SimDuration short_run, SimDuration long_run) {
  const uint64_t news_before_short = g_news;
  const uint64_t short_requests = run(short_run);
  const uint64_t short_news = g_news - news_before_short;
  const uint64_t news_before_long = g_news;
  const uint64_t long_requests = run(long_run);
  const uint64_t long_news = g_news - news_before_long;
  EXPECT_GT(long_requests, short_requests + 1000);
  return (static_cast<double>(long_news) - static_cast<double>(short_news)) /
         static_cast<double>(long_requests - short_requests);
}

TEST(RdmaAllocTest, IngressEchoRequestAllocatesNothing) {
  const double per_request = AllocationsPerRequest(
      [](SimDuration duration) {
        IngressEchoOptions options;
        options.clients = 16;
        options.warmup = 5 * kMillisecond;
        options.duration = duration;
        const IngressEchoResult r = RunIngressEcho(CostModel::Default(), options);
        return static_cast<uint64_t>(std::llround(r.rps * ToSeconds(duration)));
      },
      10 * kMillisecond, 40 * kMillisecond);
  std::printf("ingress echo: %.4f allocations per request\n", per_request);
  EXPECT_LT(per_request, 0.01);
}

TEST(RdmaAllocTest, DneEchoRequestAllocatesNothing) {
  const double per_request = AllocationsPerRequest(
      [](SimDuration duration) {
        MultiTenantOptions options;
        options.duration = duration;
        for (TenantId tenant : {1u, 2u}) {
          TenantScenario scenario;
          scenario.tenant = tenant;
          scenario.weight = tenant;
          scenario.stop = duration;
          scenario.window = 16;
          options.tenants.push_back(scenario);
        }
        const MultiTenantResult r = RunMultiTenant(CostModel::Default(), options);
        uint64_t completed = 0;
        for (const auto& [tenant, count] : r.tenant_completed) {
          completed += count;
        }
        return completed;
      },
      10 * kMillisecond, 40 * kMillisecond);
  std::printf("DNE echo: %.4f allocations per request\n", per_request);
  EXPECT_LT(per_request, 0.01);
}

}  // namespace
}  // namespace nadino
