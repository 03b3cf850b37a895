// Deeper verbs-semantics properties: in-order RC delivery, per-tenant SRQ
// separation, interleaved op types, and completion accounting under load.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/mem/hugepage_arena.h"
#include "src/mem/tenant_registry.h"
#include "src/rdma/rdma_engine.h"
#include "src/runtime/message_header.h"
#include "tests/registry_read.h"

namespace nadino {
namespace {

class VerbsSemanticsTest : public ::testing::Test {
 protected:
  VerbsSemanticsTest()
      : network_(env_),
        a_(env_, 1, &network_),
        b_(env_, 2, &network_) {
    pool_a_ = registry_a_.CreatePool(kTenant1, "a1", {128, 8192});
    pool_b1_ = registry_b_.CreatePool(kTenant1, "b1", {128, 8192});
    pool_b2_ = registry_b_.CreatePool(kTenant2, "b2", {128, 8192});
    std::tie(qp1_a_, qp1_b_) = RdmaEngine::CreateConnectedPair(a_, b_, kTenant1);
    std::tie(qp2_a_, qp2_b_) = RdmaEngine::CreateConnectedPair(a_, b_, kTenant2);
  }

  void PostRecvs(BufferPool* pool, int n, uint64_t base_wr) {
    for (int i = 0; i < n; ++i) {
      Buffer* buffer = pool->Get(OwnerId::External(2));
      ASSERT_NE(buffer, nullptr);
      ASSERT_TRUE(b_.PostRecvBuffer(pool, buffer, OwnerId::External(2),
                                    base_wr + static_cast<uint64_t>(i)));
    }
  }

  static constexpr TenantId kTenant1 = 1;
  static constexpr TenantId kTenant2 = 2;
  CostModel cost_ = CostModel::Default();
  Simulator sim_;
  Env env_{&sim_, &cost_};
  RdmaNetwork network_;
  RdmaEngine a_;
  RdmaEngine b_;
  TenantRegistry registry_a_;
  TenantRegistry registry_b_;
  BufferPool* pool_a_ = nullptr;
  BufferPool* pool_b1_ = nullptr;
  BufferPool* pool_b2_ = nullptr;
  QpNum qp1_a_ = 0;
  QpNum qp1_b_ = 0;
  QpNum qp2_a_ = 0;
  QpNum qp2_b_ = 0;
};

TEST_F(VerbsSemanticsTest, RcDeliversInPostOrder) {
  PostRecvs(pool_b1_, 32, 100);
  std::vector<uint32_t> arrival_order;
  b_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kRecv) {
      arrival_order.push_back(cqe.imm);
    }
  });
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  for (uint32_t i = 0; i < 32; ++i) {
    src->FillPattern(i, 64 + i * 8);  // Varying sizes must not reorder.
    ASSERT_TRUE(a_.PostSend(qp1_a_, *src, i, /*imm=*/i));
  }
  sim_.Run();
  ASSERT_EQ(arrival_order.size(), 32u);
  for (uint32_t i = 0; i < 32; ++i) {
    EXPECT_EQ(arrival_order[i], i) << "reordered at " << i;
  }
}

TEST_F(VerbsSemanticsTest, SrqsIsolateTenants) {
  PostRecvs(pool_b1_, 2, 100);
  PostRecvs(pool_b2_, 2, 200);
  std::vector<TenantId> receive_tenants;
  std::vector<PoolId> receive_pools;
  b_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kRecv) {
      receive_tenants.push_back(cqe.tenant);
      receive_pools.push_back(cqe.buffer->pool);
    }
  });
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(1, 128);
  a_.PostSend(qp1_a_, *src, 1);  // Tenant 1's QP.
  a_.PostSend(qp2_a_, *src, 2);  // Tenant 2's QP.
  sim_.Run();
  ASSERT_EQ(receive_tenants.size(), 2u);
  // Each message consumed a buffer from ITS tenant's pool — the guarantee
  // that "the RNIC delivers incoming data into the correct pool" (3.3).
  for (size_t i = 0; i < 2; ++i) {
    if (receive_tenants[i] == kTenant1) {
      EXPECT_EQ(receive_pools[i], pool_b1_->id());
    } else {
      EXPECT_EQ(receive_pools[i], pool_b2_->id());
    }
  }
}

TEST_F(VerbsSemanticsTest, TenantExhaustionDoesNotStealOtherTenantsBuffers) {
  // Tenant 1 has NO receive buffers; tenant 2 has plenty. Tenant 1's send
  // must RNR-fail rather than consume tenant 2's buffers.
  PostRecvs(pool_b2_, 4, 200);
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(1, 64);
  WrStatus t1_status = WrStatus::kSuccess;
  a_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kSend && cqe.tenant == kTenant1) {
      t1_status = cqe.status;
    }
  });
  a_.PostSend(qp1_a_, *src, 1);
  sim_.Run();
  EXPECT_EQ(t1_status, WrStatus::kRnrRetryExceeded);
  EXPECT_EQ(b_.SrqOfTenant(kTenant2).depth(), 4u);  // Untouched.
}

TEST_F(VerbsSemanticsTest, MixedSendAndWriteOnOneQpBothComplete) {
  b_.mr_table().Register(pool_b1_, kMrRemoteWrite);
  PostRecvs(pool_b1_, 1, 100);
  int send_done = 0;
  int write_done = 0;
  a_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kSend) {
      ++send_done;
    } else if (cqe.opcode == RdmaOpcode::kWrite) {
      ++write_done;
    }
  });
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(7, 256);
  a_.PostSend(qp1_a_, *src, 1);
  a_.PostWrite(qp1_a_, *src, pool_b1_->id(), 5, 2);
  sim_.Run();
  EXPECT_EQ(send_done, 1);
  EXPECT_EQ(write_done, 1);
  EXPECT_EQ(a_.Outstanding(qp1_a_), 0u);
}

TEST_F(VerbsSemanticsTest, CompletionCountsBalanceUnderLoad) {
  PostRecvs(pool_b1_, 64, 100);
  uint64_t sender_completions = 0;
  uint64_t receiver_completions = 0;
  a_.cq().SetHandler([&](const Completion& cqe) {
    sender_completions += cqe.opcode == RdmaOpcode::kSend ? 1 : 0;
  });
  b_.cq().SetHandler([&](const Completion& cqe) {
    receiver_completions += cqe.opcode == RdmaOpcode::kRecv ? 1 : 0;
  });
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(1, 1024);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(a_.PostSend(qp1_a_, *src, static_cast<uint64_t>(i)));
  }
  sim_.Run();
  EXPECT_EQ(sender_completions, 64u);
  EXPECT_EQ(receiver_completions, 64u);
  EXPECT_EQ(b_.SrqOfTenant(kTenant1).depth(), 0u);
  EXPECT_EQ(b_.SrqOfTenant(kTenant1).consumed(), 64u);
  EXPECT_EQ(RegistryCounter(env_.metrics(), "rnic_bytes_tx", MetricLabels::Node(a_.node())),
            64u * 1024u);
}

TEST_F(VerbsSemanticsTest, WriteTruncatesAtRemoteBufferCapacity) {
  HugepageArena arena;
  BufferPool small_pool(/*id=*/7, kTenant1, 4, 1024, &arena);
  BufferPool* small = &small_pool;
  b_.mr_table().Register(small, kMrRemoteWrite);
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(9, 4096);
  uint32_t write_len = 0;
  a_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kWrite) {
      EXPECT_EQ(cqe.status, WrStatus::kSuccess);
      write_len = cqe.byte_len;
    }
  });
  // The source holds more than the remote buffer: truncated to capacity.
  ASSERT_TRUE(a_.PostWrite(qp1_a_, *src, small->id(), 2, 9));
  sim_.Run();
  Buffer* remote = small->Resolve(BufferDescriptor{small->id(), 2, 0, 0});
  EXPECT_EQ(write_len, 1024u);
  EXPECT_EQ(remote->length, 1024u);
  EXPECT_EQ(remote->capacity(), 1024u);
  EXPECT_TRUE(std::equal(remote->data.begin(), remote->data.end(), src->data.begin()));
}

}  // namespace
}  // namespace nadino
