// The per-tenant shared receive queue (src/rdma/shared_receive_queue.h):
// post/consume accounting and ownership guards at the unit level, then the
// engine-visible contracts — RNR retry exhaustion surfacing
// kRnrRetryExceeded at the sender when the SRQ runs dry, and posted-buffer
// conservation under injected rnic_rx drops (a dropped packet NACKs the
// sender before the SRQ pops, so the receiver's posted credits survive).

#include "src/rdma/shared_receive_queue.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/core/fault.h"
#include "src/mem/tenant_registry.h"
#include "src/rdma/rdma_engine.h"
#include "tests/registry_read.h"

namespace nadino {
namespace {

constexpr TenantId kTenant = 5;

TEST(SharedReceiveQueueUnit, PostPopAccountingIsFifo) {
  CostModel cost = CostModel::Default();
  Simulator sim;
  Env env{&sim, &cost};
  TenantRegistry registry;
  BufferPool* pool = registry.CreatePool(kTenant, "rx", {8, 4096});
  SharedReceiveQueue srq(kTenant);

  std::vector<Buffer*> posted;
  for (uint64_t i = 0; i < 3; ++i) {
    Buffer* buffer = pool->Get(OwnerId::Rnic(1));
    ASSERT_NE(buffer, nullptr);
    posted.push_back(buffer);
    ASSERT_TRUE(srq.Post(buffer, /*wr_id=*/100 + i, /*rnic_node=*/1));
  }
  EXPECT_EQ(srq.posted(), 3u);
  EXPECT_EQ(srq.depth(), 3u);
  EXPECT_EQ(srq.consumed(), 0u);

  for (uint64_t i = 0; i < 3; ++i) {
    const SharedReceiveQueue::PostedRecv recv = srq.Pop();
    EXPECT_EQ(recv.buffer, posted[i]);  // FIFO: oldest posting first.
    EXPECT_EQ(recv.wr_id, 100 + i);
  }
  EXPECT_EQ(srq.consumed(), 3u);
  EXPECT_EQ(srq.depth(), 0u);

  // Empty queue reports the RNR condition, not a stale entry.
  const SharedReceiveQueue::PostedRecv empty = srq.Pop();
  EXPECT_EQ(empty.buffer, nullptr);
  EXPECT_EQ(empty.wr_id, 0u);
  EXPECT_EQ(srq.consumed(), 3u);  // An empty Pop consumes nothing.
}

TEST(SharedReceiveQueueUnit, PostRejectsForeignOwnershipAndTenant) {
  CostModel cost = CostModel::Default();
  Simulator sim;
  Env env{&sim, &cost};
  TenantRegistry registry;
  BufferPool* mine = registry.CreatePool(kTenant, "mine", {4, 4096});
  BufferPool* other = registry.CreatePool(kTenant + 1, "other", {4, 4096});
  SharedReceiveQueue srq(kTenant);

  // Not RNIC-owned: a function-held buffer cannot back a receive.
  Buffer* held = mine->Get(OwnerId::Function(7));
  ASSERT_NE(held, nullptr);
  EXPECT_FALSE(srq.Post(held, 1, /*rnic_node=*/1));
  EXPECT_EQ(srq.post_violations(), 1u);

  // Wrong tenant's pool: the SRQ must never deliver into another tenant.
  Buffer* foreign = other->Get(OwnerId::Rnic(1));
  ASSERT_NE(foreign, nullptr);
  EXPECT_FALSE(srq.Post(foreign, 2, /*rnic_node=*/1));
  EXPECT_EQ(srq.post_violations(), 2u);

  EXPECT_EQ(srq.posted(), 0u);
  EXPECT_EQ(srq.depth(), 0u);
}

class SrqEngineTest : public ::testing::Test {
 protected:
  SrqEngineTest() : network_(env_), a_(env_, 1, &network_), b_(env_, 2, &network_) {
    pool_a_ = registry_a_.CreatePool(kTenant, "a", {32, 8192});
    pool_b_ = registry_b_.CreatePool(kTenant, "b", {32, 8192});
    a_.mr_table().Register(pool_a_, kMrLocal);
    b_.mr_table().Register(pool_b_, kMrLocal);
    std::tie(qp_a_, qp_b_) = RdmaEngine::CreateConnectedPair(a_, b_, kTenant);
  }

  void PostRecvs(int n) {
    for (int i = 0; i < n; ++i) {
      Buffer* buffer = pool_b_->Get(OwnerId::External(2));
      ASSERT_NE(buffer, nullptr);
      ASSERT_TRUE(b_.PostRecvBuffer(pool_b_, buffer, OwnerId::External(2), next_recv_wr_++));
    }
  }

  bool SendOne(uint64_t wr_id) {
    Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
    if (src == nullptr) {
      return false;
    }
    src->FillPattern(static_cast<uint8_t>(wr_id), 512);
    sent_[wr_id] = src;  // Recycled by the poster on its send CQE.
    return a_.PostSend(qp_a_, *src, wr_id);
  }

  // Returns the sender's buffer for a completed WR to its pool (verbs
  // semantics: the poster owns recycling, success or error alike).
  void RecycleSent(const Completion& cqe) {
    const auto it = sent_.find(cqe.wr_id);
    ASSERT_NE(it, sent_.end());
    pool_a_->Put(it->second, OwnerId::Rnic(1));
    sent_.erase(it);
  }

  CostModel cost_ = CostModel::Default();
  Simulator sim_;
  Env env_{&sim_, &cost_};
  RdmaNetwork network_;
  RdmaEngine a_;
  RdmaEngine b_;
  TenantRegistry registry_a_;
  TenantRegistry registry_b_;
  BufferPool* pool_a_ = nullptr;
  BufferPool* pool_b_ = nullptr;
  QpNum qp_a_ = 0;
  QpNum qp_b_ = 0;
  uint64_t next_recv_wr_ = 100;
  std::map<uint64_t, Buffer*> sent_;
};

TEST_F(SrqEngineTest, EmptySrqExhaustsRnrRetriesWithRnrStatus) {
  WrStatus status = WrStatus::kSuccess;
  a_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kSend) {
      status = cqe.status;
      RecycleSent(cqe);
    }
  });
  ASSERT_TRUE(SendOne(1));
  sim_.Run();
  // No buffer was ever posted: every backoff re-attempt finds the SRQ dry
  // and the sender's WR fails with the RNR status, not a hang.
  EXPECT_EQ(status, WrStatus::kRnrRetryExceeded);
  EXPECT_GE(RegistryCounter(env_.metrics(), "rnic_rnr_events", MetricLabels::Node(b_.node())), 1u);
  EXPECT_EQ(RegistryCounter(env_.metrics(), "rnic_rnr_failures", MetricLabels::Node(b_.node())),
            1u);
  EXPECT_EQ(b_.SrqOfTenant(kTenant).consumed(), 0u);
  // The failed send's buffer was recycled, not leaked.
  EXPECT_EQ(pool_a_->in_use(), 0u);
}

TEST_F(SrqEngineTest, RxDropsPreservePostedCreditsAndRefillRecovers) {
  PostRecvs(4);
  const SharedReceiveQueue& srq = b_.SrqOfTenant(kTenant);
  ASSERT_EQ(srq.posted(), 4u);

  // Drop the first two packets in the receiver's RX pipeline.
  FaultSpec spec;
  spec.site = FaultSite::kRnicRx;
  spec.action = FaultAction::kDrop;
  spec.probability = 1.0;
  spec.node = 2;
  spec.max_injections = 2;
  ASSERT_GE(env_.faults().Install(spec), 0);

  int transport_errors = 0;
  int send_ok = 0;
  a_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode != RdmaOpcode::kSend) {
      return;
    }
    if (cqe.status == WrStatus::kTransportError) {
      ++transport_errors;
    } else if (cqe.status == WrStatus::kSuccess) {
      ++send_ok;
    }
    RecycleSent(cqe);
  });
  int recvs = 0;
  b_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kRecv) {
      ++recvs;
      pool_b_->Put(cqe.buffer, OwnerId::Rnic(2));
    }
  });

  for (uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(SendOne(i));
  }
  sim_.Run();

  // Two packets died in RX — NACKed to the sender *before* the SRQ popped,
  // so the posted credits survived for the two that got through.
  EXPECT_EQ(transport_errors, 2);
  EXPECT_EQ(send_ok, 2);
  EXPECT_EQ(recvs, 2);
  EXPECT_EQ(srq.posted(), 4u);
  EXPECT_EQ(srq.consumed(), 2u);
  EXPECT_EQ(srq.depth(), 2u);

  // Refill on top of the surviving credits and drain the queue completely.
  PostRecvs(2);
  for (uint64_t i = 5; i <= 8; ++i) {
    ASSERT_TRUE(SendOne(i));
  }
  sim_.Run();
  EXPECT_EQ(recvs, 6);
  EXPECT_EQ(srq.consumed(), 6u);
  EXPECT_EQ(srq.depth(), 0u);
  // Conservation: every sender-side buffer recycled (success or NACK), every
  // receiver-side buffer either back in the pool or never consumed.
  EXPECT_EQ(pool_a_->in_use(), 0u);
  EXPECT_EQ(pool_b_->in_use(), 0u);
}

}  // namespace
}  // namespace nadino
