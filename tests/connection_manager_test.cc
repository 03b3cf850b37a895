// Tests for shadow-QP connection pooling (ConnectionService legacy surface)
// and the distributed lock service. Lifecycle extensions are covered in
// control_plane_test.cc.

#include "src/rdma/control_plane.h"
#include "src/rdma/distributed_lock.h"

#include <gtest/gtest.h>

#include <string>

#include "src/mem/tenant_registry.h"
#include "tests/registry_read.h"

namespace nadino {
namespace {

class ConnectionServiceTest : public ::testing::Test {
 protected:
  ConnectionServiceTest()
      : network_(env_),
        a_(env_, 1, &network_),
        b_(env_, 2, &network_) {}

  static ConnectionService::Config Bounded(int max_active_per_peer,
                                           uint32_t congestion_threshold = 16) {
    ConnectionService::Config config;
    config.max_active_per_peer = max_active_per_peer;
    config.congestion_threshold = congestion_threshold;
    return config;
  }

  // connmgr_* counter `name` of engine a_'s service, read strictly.
  uint64_t ConnmgrCounter(const std::string& name) const {
    return RegistryCounter(env_.metrics(), name, MetricLabels::Node(a_.node()));
  }

  static constexpr TenantId kTenant = 3;
  CostModel cost_ = CostModel::Default();
  Simulator sim_;
  Env env_{&sim_, &cost_};
  RdmaNetwork network_;
  RdmaEngine a_;
  RdmaEngine b_;
};

TEST_F(ConnectionServiceTest, PrewarmCreatesBoundedActiveSet) {
  ConnectionService manager(env_, &a_, Bounded(/*max_active_per_peer=*/2));
  manager.Prewarm(&b_, kTenant, 5);
  EXPECT_EQ(manager.PooledCount(2, kTenant), 5);
  EXPECT_EQ(manager.ActiveCount(2, kTenant), 2);
  EXPECT_EQ(ConnmgrCounter("connmgr_connects"), 5u);
}

TEST_F(ConnectionServiceTest, AcquireReturnsActiveConnection) {
  ConnectionService manager(env_, &a_, Bounded(2));
  manager.Prewarm(&b_, kTenant, 3);
  const auto acquired = manager.Acquire(2, kTenant);
  EXPECT_NE(acquired.qp, 0u);
  EXPECT_EQ(acquired.control_cost, 0);
}

TEST_F(ConnectionServiceTest, AcquireUnknownPeerFails) {
  ConnectionService manager(env_, &a_, Bounded(2));
  EXPECT_EQ(manager.Acquire(99, kTenant).qp, 0u);
}

TEST_F(ConnectionServiceTest, PicksLeastCongestedConnection) {
  ConnectionService manager(env_, &a_, Bounded(4));
  manager.Prewarm(&b_, kTenant, 2);
  const auto first = manager.Acquire(2, kTenant);
  // Load the first QP with outstanding work; the next acquire should pick the
  // other one.
  TenantRegistry registry;
  BufferPool* pool = registry.CreatePool(kTenant, "t", {8, 256});
  Buffer* src = pool->Get(OwnerId::External());
  src->FillPattern(1, 64);
  a_.PostSend(first.qp, *src, 1);
  a_.PostSend(first.qp, *src, 2);
  const auto second = manager.Acquire(2, kTenant);
  EXPECT_NE(second.qp, first.qp);
}

TEST_F(ConnectionServiceTest, ActivatesShadowQpUnderCongestion) {
  ConnectionService manager(env_, &a_,
                            Bounded(/*max_active_per_peer=*/2, /*congestion_threshold=*/1));
  manager.Prewarm(&b_, kTenant, 3);  // 2 active + 1 shadow... max_active=2.
  EXPECT_EQ(manager.ActiveCount(2, kTenant), 2);
  // Congest both active QPs past the threshold.
  TenantRegistry registry;
  BufferPool* pool = registry.CreatePool(kTenant, "t", {16, 256});
  Buffer* src = pool->Get(OwnerId::External());
  src->FillPattern(1, 64);
  for (int i = 0; i < 2; ++i) {
    const auto acquired = manager.Acquire(2, kTenant);
    a_.PostSend(acquired.qp, *src, 1);
    a_.PostSend(acquired.qp, *src, 2);
  }
  // All active congested but the active bound is reached: no activation.
  const auto more = manager.Acquire(2, kTenant);
  EXPECT_NE(more.qp, 0u);
  EXPECT_EQ(manager.ActiveCount(2, kTenant), 2);
}

TEST_F(ConnectionServiceTest, NoteIdleDeactivatesOnlyAboveBound) {
  ConnectionService manager(env_, &a_, Bounded(2));
  manager.Prewarm(&b_, kTenant, 2);
  const auto acquired = manager.Acquire(2, kTenant);
  manager.NoteIdle(acquired.qp);
  // Within the bound: stays warm.
  EXPECT_EQ(manager.ActiveCount(2, kTenant), 2);
}

TEST_F(ConnectionServiceTest, SeparatePoolsPerTenant) {
  ConnectionService manager(env_, &a_, Bounded(2));
  manager.Prewarm(&b_, 3, 2);
  manager.Prewarm(&b_, 4, 1);
  EXPECT_EQ(manager.PooledCount(2, 3), 2);
  EXPECT_EQ(manager.PooledCount(2, 4), 1);
  EXPECT_EQ(manager.Acquire(2, 5).qp, 0u);
}

TEST_F(ConnectionServiceTest, ErroredQpExcludedUntilRepaired) {
  ConnectionService manager(env_, &a_, Bounded(2));
  manager.Prewarm(&b_, kTenant, 2);
  const auto first = manager.Acquire(2, kTenant);
  ASSERT_NE(first.qp, 0u);
  // Drive the QP into the error state: send with no receive buffer posted
  // until the RNR retries exhaust.
  TenantRegistry registry;
  BufferPool* pool = registry.CreatePool(kTenant, "t", {8, 256});
  Buffer* src = pool->Get(OwnerId::External());
  src->FillPattern(1, 64);
  ASSERT_TRUE(a_.PostSend(first.qp, *src, 1));
  sim_.Run();
  EXPECT_TRUE(a_.InError(first.qp));
  EXPECT_FALSE(a_.PostSend(first.qp, *src, 2));  // Fails fast in error state.
  // Acquire() avoids the broken connection.
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(manager.Acquire(2, kTenant).qp, first.qp);
  }
  // Repair re-runs the handshake (tens of ms) and restores service.
  manager.Repair(first.qp, &b_);
  sim_.Run();
  EXPECT_FALSE(a_.InError(first.qp));
  EXPECT_EQ(ConnmgrCounter("connmgr_repairs"), 1u);
  // Receiver posts a buffer this time; the send goes through.
  Buffer* recv = pool->Get(OwnerId::External());
  // (Receive buffers normally come from the receiver-side pool; for this
  // control-path test the pool identity is irrelevant.)
  b_.mr_table().Register(pool, kMrLocal);
  pool->Transfer(recv, OwnerId::External(), OwnerId::Rnic(2));
  b_.SrqOfTenant(kTenant).Post(recv, 77, 2);
  EXPECT_TRUE(a_.PostSend(first.qp, *src, 3));
  sim_.Run();
  EXPECT_EQ(b_.SrqOfTenant(kTenant).consumed(), 1u);
}

class DistributedLockTest : public ::testing::Test {
 protected:
  DistributedLockTest()
      : network_(env_),
        a_(env_, 1, &network_),
        b_(env_, 2, &network_),
        manager_core_(&sim_, "mgr"),
        locks_(env_, &network_, /*home=*/2, &manager_core_) {}

  CostModel cost_ = CostModel::Default();
  Simulator sim_;
  Env env_{&sim_, &cost_};
  RdmaNetwork network_;
  RdmaEngine a_;
  RdmaEngine b_;
  FifoResource manager_core_;
  DistributedLockService locks_;
};

TEST_F(DistributedLockTest, RemoteAcquireCostsAtLeastOneRoundTrip) {
  SimTime granted_at = -1;
  locks_.Acquire(1, 55, [&]() { granted_at = sim_.now(); });
  sim_.Run();
  ASSERT_GE(granted_at, 0);
  // Fabric there + manager processing + fabric back.
  EXPECT_GT(granted_at, 2 * (cost_.link_propagation * 2 + cost_.switch_latency));
}

TEST_F(DistributedLockTest, ContendedLockWaitsForRelease) {
  bool first = false;
  bool second = false;
  locks_.Acquire(1, 7, [&]() { first = true; });
  locks_.Acquire(1, 7, [&]() { second = true; });
  sim_.Run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);  // Held.
  EXPECT_EQ(locks_.contended_acquires(), 1u);
  locks_.Release(1, 7);
  sim_.Run();
  EXPECT_TRUE(second);
}

TEST_F(DistributedLockTest, FifoGrantOrderAcrossWaiters) {
  std::vector<int> order;
  locks_.Acquire(1, 9, [&]() { order.push_back(0); });
  sim_.Run();
  locks_.Acquire(1, 9, [&]() { order.push_back(1); });
  locks_.Acquire(1, 9, [&]() { order.push_back(2); });
  sim_.Run();
  locks_.Release(1, 9);
  sim_.Run();
  locks_.Release(1, 9);
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST_F(DistributedLockTest, IndependentLocksDoNotInterfere) {
  bool lock_a = false;
  bool lock_b = false;
  locks_.Acquire(1, 1, [&]() { lock_a = true; });
  locks_.Acquire(1, 2, [&]() { lock_b = true; });
  sim_.Run();
  EXPECT_TRUE(lock_a);
  EXPECT_TRUE(lock_b);
  EXPECT_EQ(locks_.contended_acquires(), 0u);
}

TEST_F(DistributedLockTest, LocalAcquireSkipsFabric) {
  SimTime granted_at = -1;
  locks_.Acquire(2, 3, [&]() { granted_at = sim_.now(); });
  sim_.Run();
  ASSERT_GE(granted_at, 0);
  EXPECT_LT(granted_at, 2 * cost_.dlock_manager_op + kMicrosecond);
}

}  // namespace
}  // namespace nadino
