// Allocation bounds of the resource -> link -> fabric -> RNIC pipeline
// (DESIGN.md §3c): continuations move through FifoResource jobs, Link
// deliveries and Fabric stages inline, so steady-state jobs and transfers
// touch the global allocator zero times, and a two-sided SEND WR allocates
// only what the RDMA model itself owns (the payload snapshot, the pending-ACK
// map node, and the Fabric spill of each packet's delivery closure, for the
// SEND and for its ACK). This file overrides the global operator new with a
// counting shim, so it lives in its own test binary.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/core/env.h"
#include "src/mem/tenant_registry.h"
#include "src/rdma/fabric.h"
#include "src/rdma/rdma_engine.h"
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

TEST(RdmaAllocTest, FabricSendWithInlineDeliveryAllocatesNothing) {
  CostModel cost = CostModel::Default();
  Simulator sim;
  Env env(&sim, &cost);
  Fabric fabric(env);
  fabric.AttachNode(1);
  fabric.AttachNode(2);
  uint64_t delivered = 0;
  auto delivery = [&delivered]() { ++delivered; };
  for (int i = 0; i < 1024; ++i) {
    fabric.Send(1, 2, 256, delivery);
  }
  sim.Run();
  const uint64_t before = g_news;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 200; ++i) {
      fabric.Send(1, 2, 256, delivery);
    }
    sim.Run();
  }
  EXPECT_EQ(g_news - before, 0u) << "steady-state Send touched the allocator";
  EXPECT_EQ(delivered, 1024u + 100u * 200u);
  EXPECT_EQ(fabric.callback_spills(), 0u);
}

// SEND ping: one WR in flight, the receiver reposts each consumed buffer.
TEST(RdmaAllocTest, SendWorkRequestAllocatesAtMostFour) {
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
  EXPECT_LE(allocations, 4 * kWrs) << static_cast<double>(allocations) / kWrs
                                   << " allocations per SEND WR";
  EXPECT_EQ(completions, 2000u + kWrs);
  EXPECT_EQ(RegistryCounter(env.metrics(), "rnic_recv_completions", MetricLabels::Node(b.node())),
            2000u + kWrs);
}

}  // namespace
}  // namespace nadino
