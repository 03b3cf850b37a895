// ConnectionService lifecycle extensions: lazy on-demand establishment with
// waiter coalescing, typed acquire misses, tenant-shared symmetric pooling,
// and destroy-on-departure. The legacy (eager) pooling
// surface is covered by connection_manager_test.cc and pinned byte-for-byte
// by the bench goldens.

#include "src/rdma/control_plane.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/mem/tenant_registry.h"
#include "tests/registry_read.h"

namespace nadino {
namespace {

class ControlPlaneTest : public ::testing::Test {
 protected:
  ControlPlaneTest() : network_(env_), a_(env_, 1, &network_), b_(env_, 2, &network_) {}

  static ConnectionService::Config LazyConfig(ConnectPolicy policy) {
    ConnectionService::Config config;
    config.policy = policy;
    return config;
  }

  static constexpr TenantId kTenant = 3;
  CostModel cost_ = CostModel::Default();
  Simulator sim_;
  Env env_{&sim_, &cost_};
  RdmaNetwork network_;
  RdmaEngine a_;
  RdmaEngine b_;
};

TEST_F(ControlPlaneTest, AcquireMissIsTyped) {
  ConnectionService service(env_, &a_, LazyConfig(ConnectPolicy::kLazy));
  const auto miss = service.Acquire(2, kTenant);
  EXPECT_EQ(miss.qp, 0u);
  EXPECT_EQ(miss.miss, AcquireMiss::kNoPool);
  EXPECT_EQ(service.stats().misses, 1u);
}

TEST_F(ControlPlaneTest, EagerPolicyCannotEstablishOnDemand) {
  ConnectionService service(env_, &a_, LazyConfig(ConnectPolicy::kEager));
  EXPECT_FALSE(service.CanEstablish(2, kTenant));
}

TEST_F(ControlPlaneTest, LazyEstablishRunsHandshakeThenServes) {
  ConnectionService service(env_, &a_, LazyConfig(ConnectPolicy::kLazy));
  ASSERT_TRUE(service.CanEstablish(2, kTenant));
  EXPECT_EQ(service.StateOf(2, kTenant), QpLifecycle::kAbsent);
  ConnectionService::Acquired got;
  SimTime ready_at = -1;
  service.EstablishThen(2, kTenant, 0, [&](const ConnectionService::Acquired& acquired) {
    got = acquired;
    ready_at = sim_.now();
  });
  // Handshake in flight: the key reports kEstablishing and acquires miss
  // with that reason.
  EXPECT_EQ(service.StateOf(2, kTenant), QpLifecycle::kEstablishing);
  EXPECT_EQ(service.Acquire(2, kTenant).miss, AcquireMiss::kEstablishing);
  sim_.Run();
  EXPECT_NE(got.qp, 0u);
  // Setup elapsed on the virtual clock: handshake + create + 3 modifies.
  EXPECT_EQ(ready_at,
            cost_.rc_connect_cost + cost_.qp_create_verb + 3 * cost_.qp_modify_verb);
  EXPECT_EQ(service.StateOf(2, kTenant), QpLifecycle::kActive);
  EXPECT_EQ(service.stats().establishes, 1u);
  EXPECT_EQ(service.stats().create_verbs, 1u);
  EXPECT_EQ(service.stats().modify_verbs, 3u);
}

TEST_F(ControlPlaneTest, ConcurrentEstablishersCoalesceBehindOneHandshake) {
  ConnectionService service(env_, &a_, LazyConfig(ConnectPolicy::kLazy));
  int ready = 0;
  for (int i = 0; i < 3; ++i) {
    service.EstablishThen(2, kTenant, 0, [&](const ConnectionService::Acquired& acquired) {
      EXPECT_NE(acquired.qp, 0u);
      ++ready;
    });
  }
  sim_.Run();
  EXPECT_EQ(ready, 3);
  EXPECT_EQ(service.stats().establishes, 1u);
  EXPECT_EQ(service.PooledCount(2, kTenant), 1);
}

TEST_F(ControlPlaneTest, EstablishBatchCreatesSeveralQpsPerHandshake) {
  ConnectionService::Config config = LazyConfig(ConnectPolicy::kLazy);
  config.establish_batch = 3;
  ConnectionService service(env_, &a_, config);
  service.EstablishThen(2, kTenant, 0, [](const ConnectionService::Acquired&) {});
  sim_.Run();
  EXPECT_EQ(service.PooledCount(2, kTenant), 3);
  EXPECT_EQ(service.stats().create_verbs, 3u);
  EXPECT_EQ(service.stats().modify_verbs, 9u);
  EXPECT_EQ(service.stats().establishes, 1u);
}

TEST_F(ControlPlaneTest, SharedPolicyAdoptsRemoteHalfAtPeer) {
  ConnectionService a_service(env_, &a_, LazyConfig(ConnectPolicy::kLazyShared));
  ConnectionService b_service(env_, &b_, LazyConfig(ConnectPolicy::kLazyShared));
  a_service.LinkPeer(2, &b_service);
  b_service.LinkPeer(1, &a_service);
  a_service.EstablishThen(2, kTenant, 0, [](const ConnectionService::Acquired&) {});
  sim_.Run();
  // One handshake warmed BOTH directions: the peer pooled the remote half
  // without any establishment of its own.
  EXPECT_EQ(a_service.PooledCount(2, kTenant), 1);
  EXPECT_EQ(b_service.PooledCount(1, kTenant), 1);
  EXPECT_NE(b_service.Acquire(1, kTenant).qp, 0u);
  EXPECT_EQ(b_service.stats().establishes, 0u);
  EXPECT_EQ(b_service.stats().create_verbs, 0u);
}

TEST_F(ControlPlaneTest, SharedPolicyCollapsesStreamsToOnePool) {
  ConnectionService service(env_, &a_, LazyConfig(ConnectPolicy::kLazyShared));
  service.EstablishThen(2, kTenant, /*stream=*/7, [](const ConnectionService::Acquired&) {});
  sim_.Run();
  // Any stream acquires from the shared pool.
  EXPECT_NE(service.Acquire(2, kTenant, 0).qp, 0u);
  EXPECT_NE(service.Acquire(2, kTenant, 99).qp, 0u);
}

TEST_F(ControlPlaneTest, LazyPolicyKeysStreamsToSeparatePools) {
  ConnectionService service(env_, &a_, LazyConfig(ConnectPolicy::kLazy));
  service.EstablishThen(2, kTenant, 42, [](const ConnectionService::Acquired&) {});
  sim_.Run();
  EXPECT_EQ(service.PooledCount(2, kTenant, 42), 1);
  EXPECT_EQ(service.Acquire(2, kTenant, 7).miss, AcquireMiss::kNoPool);
}

TEST_F(ControlPlaneTest, DestroyTenantRetiresQpsAndCostsVerbs) {
  ConnectionService service(env_, &a_);  // Eager, 8 active per peer.
  service.Prewarm(&b_, kTenant, 3);
  const auto acquired = service.Acquire(2, kTenant);
  ASSERT_NE(acquired.qp, 0u);
  const SimDuration reclaim = service.DestroyTenant(kTenant);
  EXPECT_EQ(reclaim, 3 * cost_.qp_destroy_verb);
  EXPECT_EQ(service.PooledCount(2, kTenant), 0);
  EXPECT_EQ(service.LifecycleOf(acquired.qp), QpLifecycle::kDestroyed);
  EXPECT_EQ(service.stats().destroys, 3u);
  EXPECT_EQ(service.stats().destroy_verbs, 3u);
  // The QP number is retired at the RNIC: posting on it fails fast.
  TenantRegistry registry;
  BufferPool* pool = registry.CreatePool(kTenant, "t", {8, 256});
  Buffer* src = pool->Get(OwnerId::External());
  src->FillPattern(1, 64);
  EXPECT_FALSE(a_.PostSend(acquired.qp, *src, 1));
  // Idempotent: nothing left to destroy.
  EXPECT_EQ(service.DestroyTenant(kTenant), 0);
}

TEST_F(ControlPlaneTest, DestroyTenantFailsEstablishmentWaiters) {
  ConnectionService service(env_, &a_, LazyConfig(ConnectPolicy::kLazy));
  ConnectionService::Acquired got;
  bool ready = false;
  service.EstablishThen(2, kTenant, 0, [&](const ConnectionService::Acquired& acquired) {
    got = acquired;
    ready = true;
  });
  service.DestroyTenant(kTenant);
  EXPECT_TRUE(ready) << "waiters must fail closed, not hang";
  EXPECT_EQ(got.qp, 0u);
  EXPECT_EQ(got.miss, AcquireMiss::kNoPool);
  sim_.Run();
  // The in-flight handshake lands on a retired key and pools nothing.
  EXPECT_EQ(service.PooledCount(2, kTenant), 0);
}

TEST_F(ControlPlaneTest, InstrumentedMissesExportPerTenantCounters) {
  ConnectionService::Config config = LazyConfig(ConnectPolicy::kLazy);
  config.instrument = true;
  ConnectionService service(env_, &a_, config);
  service.Acquire(2, kTenant);
  service.Acquire(2, kTenant);
  MetricLabels labels = MetricLabels::Tenant(static_cast<int64_t>(kTenant));
  labels.node = 1;
  EXPECT_EQ(env_.metrics().ValueOf("connection_acquire_miss", labels), 2u);
  EXPECT_EQ(env_.metrics().ValueOf("connsvc_misses", MetricLabels::Node(1)), 2u);
}

}  // namespace
}  // namespace nadino
