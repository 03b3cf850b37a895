// The OWDL distributed lock service (src/rdma/distributed_lock.h):
// acquire/release ordering under contention, holder death via a fabric drop
// window on the holder's node — fails closed (the lock wedges, exactly the
// OWDL hazard) — and equal-seed determinism of the full grant schedule.

#include "src/rdma/distributed_lock.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/core/fault.h"
#include "src/sim/resource.h"

namespace nadino {
namespace {

constexpr NodeId kManagerNode = 1;
constexpr uint64_t kLock = 7;

class DistributedLockTest : public ::testing::Test {
 protected:
  DistributedLockTest()
      : network_(env_), manager_core_(&sim_, "mgr"),
        locks_(env_, &network_, kManagerNode, &manager_core_) {
    for (NodeId node = 1; node <= 4; ++node) {
      network_.fabric().AttachNode(node);
    }
  }

  CostModel cost_ = CostModel::Default();
  Simulator sim_;
  Env env_{&sim_, &cost_};
  RdmaNetwork network_;
  FifoResource manager_core_;
  DistributedLockService locks_;
};

TEST_F(DistributedLockTest, ContendedAcquiresGrantInFifoOrder) {
  std::vector<NodeId> grant_order;
  // Node 2 grabs the lock, then 3 and 4 queue behind it; each holder
  // releases on grant, so the grants must drain 2, 3, 4.
  locks_.Acquire(2, kLock, [&]() {
    grant_order.push_back(2);
    locks_.Acquire(3, kLock, [&]() {
      grant_order.push_back(3);
      locks_.Release(3, kLock);
    });
    locks_.Acquire(4, kLock, [&]() {
      grant_order.push_back(4);
      locks_.Release(4, kLock);
    });
    locks_.Release(2, kLock);
  });
  sim_.Run();
  ASSERT_EQ(grant_order.size(), 3u);
  EXPECT_EQ(grant_order[0], 2u);
  EXPECT_EQ(grant_order[1], 3u);
  EXPECT_EQ(grant_order[2], 4u);
  EXPECT_EQ(locks_.acquires(), 3u);
  EXPECT_EQ(locks_.contended_acquires(), 2u);
}

TEST_F(DistributedLockTest, PartitionedHolderWedgesLock) {
  // Node 2 acquires, then the fabric drops everything node 2 sends before it
  // releases: the Release crossing is lost. The service fails closed —
  // node 3 waits forever (the OWDL synchronization hazard the
  // paper's Fig. 12 prices even in the failure-free case).
  FaultSpec partition;
  partition.site = FaultSite::kFabric;
  partition.action = FaultAction::kDrop;
  partition.probability = 1.0;
  partition.node = 2;
  partition.window_start = 1 * kMillisecond;
  ASSERT_GE(env_.faults().Install(partition), 0);

  bool waiter_granted = false;
  locks_.Acquire(2, kLock, [&]() {
    locks_.Acquire(3, kLock, [&]() { waiter_granted = true; });
    // Release well inside the partition window: the message is dropped.
    sim_.Schedule(2 * kMillisecond, [&]() { locks_.Release(2, kLock); });
  });
  sim_.RunFor(200 * kMillisecond);
  EXPECT_FALSE(waiter_granted);
  EXPECT_EQ(locks_.contended_acquires(), 1u);
}

// Equal seed + equal spec list => identical grant schedule, timestamps
// included.
TEST(DistributedLockDeterminism, EqualSeedsProduceIdenticalGrantSchedules) {
  auto run = [](uint64_t seed) {
    CostModel cost = CostModel::Default();
    Simulator sim;
    Env env{&sim, &cost, seed};
    RdmaNetwork network(env);
    for (NodeId node = 1; node <= 4; ++node) {
      network.fabric().AttachNode(node);
    }
    FifoResource core(&sim, "mgr");
    DistributedLockService locks(env, &network, kManagerNode, &core);

    FaultSpec partition;
    partition.site = FaultSite::kFabric;
    partition.action = FaultAction::kDrop;
    partition.probability = 1.0;
    partition.node = 3;
    partition.window_start = 2 * kMillisecond;
    partition.window_end = 40 * kMillisecond;
    EXPECT_GE(env.faults().Install(partition), 0);

    std::vector<std::pair<NodeId, SimTime>> schedule;
    for (NodeId node = 2; node <= 4; ++node) {
      locks.Acquire(node, kLock, [&, node]() {
        schedule.emplace_back(node, sim.now());
        if (node != 3) {  // Node 3 "dies" holding the lock.
          locks.Release(node, kLock);
        }
      });
    }
    sim.RunFor(500 * kMillisecond);
    return schedule;
  };

  const auto first = run(1234);
  const auto second = run(1234);
  // Node 4 queues behind the partitioned holder and is never granted.
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace nadino
