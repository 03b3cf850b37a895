// Tests for the simulated RDMA stack: two-sided send/recv, one-sided
// write, RNR handling, MR protection, QP cache, and fabric timing.

#include "src/rdma/rdma_engine.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/fault.h"
#include "src/mem/tenant_registry.h"
#include "src/sim/random.h"
#include "tests/registry_read.h"

namespace nadino {
namespace {

class RdmaEngineTest : public ::testing::Test {
 protected:
  RdmaEngineTest()
      : network_(env_),
        a_(env_, 1, &network_),
        b_(env_, 2, &network_) {
    pool_a_ = registry_a_.CreatePool(kTenant, "a", {32, 8192});
    pool_b_ = registry_b_.CreatePool(kTenant, "b", {32, 8192});
    a_.mr_table().Register(pool_a_, kMrLocal);
    b_.mr_table().Register(pool_b_, kMrLocal);
    std::tie(qp_a_, qp_b_) = RdmaEngine::CreateConnectedPair(a_, b_, kTenant);
  }

  // Posts `n` receive buffers on engine B for the tenant.
  void PostRecvs(int n) {
    for (int i = 0; i < n; ++i) {
      Buffer* buffer = pool_b_->Get(OwnerId::External(2));
      ASSERT_NE(buffer, nullptr);
      ASSERT_TRUE(b_.PostRecvBuffer(pool_b_, buffer, OwnerId::External(2), next_recv_wr_++));
    }
  }

  // rnic_* counter `name` of `engine`, read strictly from the registry.
  uint64_t RnicCounter(const RdmaEngine& engine, const std::string& name) const {
    return RegistryCounter(env_.metrics(), name, MetricLabels::Node(engine.node()));
  }

  static constexpr TenantId kTenant = 5;
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
};

TEST_F(RdmaEngineTest, TwoSidedSendDeliversPayloadIntoPostedBuffer) {
  PostRecvs(1);
  Buffer* src = pool_a_->Get(OwnerId::External(1));
  src->FillPattern(77, 2048);
  const uint64_t src_sum = Checksum(src->payload());

  Completion recv_cqe;
  bool got_recv = false;
  b_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kRecv) {
      recv_cqe = cqe;
      got_recv = true;
    }
  });
  pool_a_->Transfer(src, OwnerId::External(1), OwnerId::Rnic(1));
  ASSERT_TRUE(a_.PostSend(qp_a_, *src, 42, /*imm=*/321));
  sim_.Run();

  ASSERT_TRUE(got_recv);
  EXPECT_EQ(recv_cqe.wr_id, 100u);  // The receiver's posted WR id.
  EXPECT_EQ(recv_cqe.byte_len, 2048u);
  EXPECT_EQ(recv_cqe.imm, 321u);
  EXPECT_EQ(recv_cqe.tenant, kTenant);
  EXPECT_EQ(recv_cqe.src_node, 1u);
  ASSERT_NE(recv_cqe.buffer, nullptr);
  EXPECT_EQ(Checksum(recv_cqe.buffer->payload()), src_sum);
}

TEST_F(RdmaEngineTest, SenderGetsSendCompletionAfterAck) {
  PostRecvs(1);
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(1, 64);
  bool send_done = false;
  a_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kSend) {
      EXPECT_EQ(cqe.wr_id, 42u);
      EXPECT_EQ(cqe.status, WrStatus::kSuccess);
      send_done = true;
    }
  });
  ASSERT_TRUE(a_.PostSend(qp_a_, *src, 42));
  EXPECT_EQ(a_.Outstanding(qp_a_), 1u);
  sim_.Run();
  EXPECT_TRUE(send_done);
  EXPECT_EQ(a_.Outstanding(qp_a_), 0u);
}

// Event budget of one signaled SEND between idle engines. Each direction
// costs three events: the fabric's arrival at the downlink and its delivery,
// and the RNIC rx handler, which pushes the receive CQE (and sends the ACK)
// or the send CQE. The TX pipeline costs none: the fabric reserves the
// uplink when the WR is posted. A change that adds a per-message event fails
// here; the two CQE times pin every delay on the way. The engine's ACK
// deadline timer adds one no-op check at post + rnic_ack_timeout.
TEST_F(RdmaEngineTest, SignaledSendAndAckTakeSixEvents) {
  PostRecvs(1);
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(9, 2048);
  SimTime recv_at = 0;
  SimTime send_done_at = 0;
  uint64_t events_at_send_done = 0;
  b_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kRecv) {
      recv_at = sim_.now();
    }
  });
  int send_completions = 0;
  a_.cq().SetHandler([&](const Completion& cqe) {
    ++send_completions;
    if (cqe.opcode == RdmaOpcode::kSend && cqe.status == WrStatus::kSuccess) {
      send_done_at = sim_.now();
      events_at_send_done = sim_.events_processed();
    }
  });
  ASSERT_TRUE(a_.PostSend(qp_a_, *src, 42));
  sim_.Run();
  EXPECT_EQ(recv_at, 6584);
  EXPECT_EQ(send_done_at, 8088);
  EXPECT_EQ(events_at_send_done, 6u);
  EXPECT_EQ(sim_.events_processed(), 7u);
  EXPECT_EQ(sim_.now(), cost_.rnic_ack_timeout);
  EXPECT_EQ(send_completions, 1);
}

// Completion times of a fixed traffic pattern: receive CQEs at B, send CQEs
// at A, in the order they fire.
struct CqeTimes {
  std::vector<SimTime> recvs;
  std::vector<SimTime> sends;
};

// Bursts of three SENDs posted back to back on one QP queue in A's TX
// pipeline and B's RX pipeline, and their ACKs in B's TX and A's RX. The
// closed-form pipelines must keep every CQE time a pipe of queued jobs
// produced. In the first burst both QP-cache entries miss, so B's RX
// pipeline is the bottleneck; in the second the cache is warm and the sizes
// grow, so B's RX never waits and the times show A's TX queueing.
TEST_F(RdmaEngineTest, BackToBackPostsKeepPipelineCqeTimes) {
  PostRecvs(6);
  CqeTimes times;
  b_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kRecv) {
      times.recvs.push_back(sim_.now());
    }
  });
  a_.cq().SetHandler([&](const Completion& cqe) {
    EXPECT_EQ(cqe.status, WrStatus::kSuccess);
    times.sends.push_back(sim_.now());
  });
  uint64_t wr_id = 0;
  // CQE times of one burst, relative to its post.
  auto burst = [&](std::vector<uint32_t> sizes) {
    times = CqeTimes{};
    const SimTime posted_at = sim_.now();
    for (const uint32_t size : sizes) {
      Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
      src->FillPattern(wr_id, size);
      EXPECT_TRUE(a_.PostSend(qp_a_, *src, wr_id++));
    }
    sim_.Run();
    for (SimTime& at : times.recvs) {
      at -= posted_at;
    }
    for (SimTime& at : times.sends) {
      at -= posted_at;
    }
    return times;
  };
  const CqeTimes cold = burst({2048, 100, 4096});
  EXPECT_EQ(cold.recvs, (std::vector<SimTime>{6584, 7201, 8517}));
  EXPECT_EQ(cold.sends, (std::vector<SimTime>{8088, 8705, 10021}));
  const CqeTimes warm = burst({100, 2048, 4096});
  EXPECT_EQ(warm.recvs, (std::vector<SimTime>{2546, 4001, 5839}));
  EXPECT_EQ(warm.sends, (std::vector<SimTime>{4050, 5505, 7343}));
}

// A direct sender (here the test, as the gateway's proxy modes are) puts a
// message on A's uplink after a SEND was posted but before the TX pipeline
// finished it. Declared through AttachDirectSender, the fabric keeps the
// SEND's departure event, so the direct message takes the uplink first and
// the SEND queues behind it, exactly as with an evented TX pipeline.
TEST_F(RdmaEngineTest, DirectSenderBetweenPostAndDepartureLeavesFirst) {
  Fabric::DirectSender sender = network_.fabric().AttachDirectSender();
  PostRecvs(1);
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(3, 2048);
  SimTime direct_at = 0;
  CqeTimes times;
  b_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kRecv) {
      times.recvs.push_back(sim_.now());
    }
  });
  a_.cq().SetHandler([&](const Completion& cqe) {
    EXPECT_EQ(cqe.status, WrStatus::kSuccess);
    times.sends.push_back(sim_.now());
  });
  ASSERT_TRUE(a_.PostSend(qp_a_, *src, 1));  // Leaves A's TX pipeline at 2558.
  sim_.ScheduleAt(1000, [&]() {
    sender.Send(1, 2, 100000, [&]() { direct_at = sim_.now(); });
  });
  sim_.Run();
  EXPECT_EQ(direct_at, 10304);
  EXPECT_EQ(times.recvs, (std::vector<SimTime>{12946}));
  EXPECT_EQ(times.sends, (std::vector<SimTime>{14450}));
  EXPECT_LT(direct_at, times.recvs[0]);
}

// An armed kFabric spec draws at the instant a packet leaves its RNIC, so
// the fabric keeps the departure event: every delayed crossing lands when it
// did with an evented TX pipeline.
TEST_F(RdmaEngineTest, FabricDelayKeepsDepartureTimes) {
  FaultSpec delay;
  delay.site = FaultSite::kFabric;
  delay.action = FaultAction::kDelay;
  delay.delay = 3 * kMicrosecond;
  delay.probability = 0.5;
  ASSERT_GE(env_.faults().Install(delay), 0);
  PostRecvs(4);
  CqeTimes times;
  b_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kRecv) {
      times.recvs.push_back(sim_.now());
    }
  });
  a_.cq().SetHandler([&](const Completion& cqe) {
    EXPECT_EQ(cqe.status, WrStatus::kSuccess);
    times.sends.push_back(sim_.now());
  });
  for (uint64_t wr = 0; wr < 4; ++wr) {
    Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
    src->FillPattern(wr, 512 * (wr + 1));
    ASSERT_TRUE(a_.PostSend(qp_a_, *src, wr));
  }
  sim_.Run();
  EXPECT_GT(env_.faults().injected_at(FaultSite::kFabric), 0u);
  EXPECT_EQ(times.recvs, (std::vector<SimTime>{5924, 6703, 7661, 9232}));
  EXPECT_EQ(times.sends, (std::vector<SimTime>{8207, 10428, 10736, 12165}));
}

// An ACK resolves its WR, so the deadline timer finds nothing due: once a
// SEND ping-pong's last ACK lands, only each engine's one deadline check is
// queued, and it fires as a no-op at its post + rnic_ack_timeout.
TEST_F(RdmaEngineTest, PingPongLeavesOneNoOpDeadlineCheckPerEngine) {
  PostRecvs(1);
  Buffer* recv_a = pool_a_->Get(OwnerId::External(1));
  ASSERT_TRUE(a_.PostRecvBuffer(pool_a_, recv_a, OwnerId::External(1), 7));
  Buffer* ping = pool_a_->Get(OwnerId::Rnic(1));
  ping->FillPattern(1, 64);
  Buffer* pong = pool_b_->Get(OwnerId::Rnic(2));
  pong->FillPattern(2, 64);
  int acks = 0;
  size_t pending_after_last_ack = 0;
  SimTime pong_posted_at = 0;
  auto on_send_completion = [&](const Completion& cqe) {
    EXPECT_EQ(cqe.status, WrStatus::kSuccess);
    ++acks;
    pending_after_last_ack = sim_.pending_events();
  };
  b_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kRecv) {
      pong_posted_at = sim_.now();
      EXPECT_TRUE(b_.PostSend(qp_b_, *pong, 2));
    } else if (cqe.opcode == RdmaOpcode::kSend) {
      on_send_completion(cqe);
    }
  });
  a_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kSend) {
      on_send_completion(cqe);
    }
  });
  ASSERT_TRUE(a_.PostSend(qp_a_, *ping, 1));
  sim_.Run();
  EXPECT_EQ(acks, 2);
  EXPECT_EQ(pending_after_last_ack, 2u);  // A's and B's deadline checks.
  EXPECT_EQ(sim_.now(), pong_posted_at + cost_.rnic_ack_timeout);
  EXPECT_EQ(sim_.pending_events(), 0u);
  EXPECT_EQ(a_.Outstanding(qp_a_), 0u);
  EXPECT_EQ(b_.Outstanding(qp_b_), 0u);
}

// A WR lost in the fabric is never ACKed, so its timeout still fires: the
// poster sees exactly one kTransportError completion at post + timeout.
TEST_F(RdmaEngineTest, FabricDropStillFailsAtAckTimeout) {
  FaultSpec drop;
  drop.site = FaultSite::kFabric;
  drop.action = FaultAction::kDrop;
  drop.max_injections = 1;
  ASSERT_GE(env_.faults().Install(drop), 0);
  PostRecvs(1);
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(1, 64);
  std::vector<Completion> completions;
  SimTime completed_at = 0;
  a_.cq().SetHandler([&](const Completion& cqe) {
    completions.push_back(cqe);
    completed_at = sim_.now();
  });
  sim_.RunFor(3 * kMicrosecond);  // Post at a non-zero time.
  const SimTime posted_at = sim_.now();
  ASSERT_TRUE(a_.PostSend(qp_a_, *src, 42));
  sim_.Run();
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].wr_id, 42u);
  EXPECT_EQ(completions[0].status, WrStatus::kTransportError);
  EXPECT_EQ(completed_at, posted_at + cost_.rnic_ack_timeout);
  EXPECT_EQ(a_.Outstanding(qp_a_), 0u);
  EXPECT_EQ(sim_.pending_events(), 0u);
}

// A WRITE's ACK resolves it: at completion only the deadline check is
// queued, and it fires as a no-op.
TEST_F(RdmaEngineTest, WriteAckLeavesOneNoOpDeadlineCheck) {
  b_.mr_table().Register(pool_b_, kMrRemoteWrite);
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(5, 512);
  int writes = 0;
  size_t pending_at_completion = 0;
  a_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kWrite) {
      EXPECT_EQ(cqe.status, WrStatus::kSuccess);
      ++writes;
      pending_at_completion = sim_.pending_events();
    }
  });
  ASSERT_TRUE(a_.PostWrite(qp_a_, *src, pool_b_->id(), 4, 9));
  sim_.Run();
  EXPECT_EQ(writes, 1);
  EXPECT_EQ(pending_at_completion, 1u);
  EXPECT_EQ(sim_.now(), cost_.rnic_ack_timeout);
  EXPECT_EQ(sim_.pending_events(), 0u);
}

// The ACK-deadline queue under loss: seeded SENDs and WRITEs both ways over
// four QP pairs while 10% of fabric crossings are lost (a request or its
// ACK), with one QP destroyed while WRs are in flight and every eighth key
// re-posted once its first WR completes (after its ACK, or from inside the
// timer's sweep after its timeout). Every WR completes exactly once, and a
// lost one exactly at its own post + rnic_ack_timeout: a stale entry of a
// re-posted key fails nothing, and the timer re-arms at a real deadline.
TEST_F(RdmaEngineTest, AckDeadlineQueueFailsEachLostWrAtItsOwnDeadline) {
  constexpr int kPairs = 4;
  constexpr int kPosts = 3000;
  constexpr SimDuration kSpan = 20 * kMillisecond;
  FaultSpec drop;
  drop.site = FaultSite::kFabric;
  drop.action = FaultAction::kDrop;
  drop.probability = 0.1;
  ASSERT_GE(env_.faults().Install(drop), 0);

  RdmaEngine* engines[2] = {&a_, &b_};
  BufferPool* pools[2] = {pool_a_, pool_b_};
  QpNum qps[2][kPairs];
  qps[0][0] = qp_a_;
  qps[1][0] = qp_b_;
  for (int pair = 1; pair < kPairs; ++pair) {
    std::tie(qps[0][pair], qps[1][pair]) = RdmaEngine::CreateConnectedPair(a_, b_, kTenant);
  }
  Buffer* srcs[2];
  for (int side = 0; side < 2; ++side) {
    RdmaEngine* engine = engines[side];
    BufferPool* pool = pools[side];
    engine->mr_table().Register(pool, kMrRemoteWrite);
    srcs[side] = pool->Get(OwnerId::Rnic(engine->node()));
    srcs[side]->FillPattern(side, 256);
    for (uint64_t i = 0; i < 24; ++i) {
      ASSERT_TRUE(engine->PostRecvBuffer(pool, pool->Get(OwnerId::External(9)),
                                         OwnerId::External(9), i));
    }
    // A receive buffer goes straight back to the queue.
    engine->cq().SetHandler([engine, pool](const Completion& cqe) {
      if (cqe.opcode == RdmaOpcode::kRecv) {
        EXPECT_TRUE(engine->PostRecvBuffer(pool, cqe.buffer, OwnerId::Rnic(engine->node()),
                                           cqe.wr_id));
      }
    });
  }

  struct Post {
    int side = 0;
    int pair = 0;
    WorkRequest wr;
    bool repost = false;
    bool after_ack = false;  // A re-post of a key whose first WR was ACKed.
    bool doomed = false;  // In flight when its QP was destroyed.
    bool accepted = false;
    SimTime at = 0;
    int completions = 0;
  };
  std::vector<Post> posts;
  int timeouts = 0;
  int reposts_after_ack = 0;
  int lost_reposts_after_ack = 0;
  int doomed_timeouts = 0;
  std::function<void(size_t, const Completion&)> on_done;
  // Posts `post` now and tracks it; a refused post (its QP is gone) must
  // never complete.
  auto issue = [&](Post post) {
    post.at = sim_.now();
    posts.push_back(post);
    const size_t i = posts.size() - 1;
    posts[i].accepted = engines[post.side]->PostWr(
        qps[post.side][post.pair], post.wr,
        [&on_done, i](const Completion& cqe) { on_done(i, cqe); });
    return posts[i].accepted;
  };
  on_done = [&](size_t i, const Completion& cqe) {
    const Post post = posts[i];
    ++posts[i].completions;
    EXPECT_EQ(cqe.wr_id, post.wr.wr_id);
    if (cqe.status == WrStatus::kTransportError) {
      ++timeouts;
      EXPECT_EQ(sim_.now(), post.at + cost_.rnic_ack_timeout) << "post " << i;
      lost_reposts_after_ack += post.after_ack ? 1 : 0;
      doomed_timeouts += post.doomed ? 1 : 0;
    }
    if (!post.repost && post.wr.wr_id % 8 == 0) {
      Post again = post;
      again.repost = true;
      again.after_ack = cqe.status == WrStatus::kSuccess;
      again.completions = 0;
      if (issue(again) && again.after_ack) {
        ++reposts_after_ack;
      }
    }
  };

  Rng rng(0xACD1);
  uint64_t next_wr_id[2][kPairs] = {};
  for (int n = 0; n < kPosts; ++n) {
    Post post;
    post.side = static_cast<int>(rng.NextU64() % 2);
    post.pair = static_cast<int>(rng.NextU64() % kPairs);
    post.wr.opcode = rng.NextU64() % 2 == 0 ? RdmaOpcode::kSend : RdmaOpcode::kWrite;
    post.wr.wr_id = next_wr_id[post.side][post.pair]++;
    post.wr.src = srcs[post.side];
    post.wr.remote_pool = pools[1 - post.side]->id();
    post.wr.remote_index = static_cast<uint32_t>(rng.NextU64() % 32);
    const auto when = static_cast<SimTime>(rng.NextU64() % kSpan);
    sim_.ScheduleAt(when, [&issue, post]() { issue(post); });
  }
  // Halfway through, a burst on A's first QP, which is then destroyed: its
  // WRs still complete, by a late ACK or at their deadline.
  sim_.ScheduleAt(kSpan / 2, [&]() {
    for (uint64_t k = 0; k < 16; ++k) {
      Post post;
      post.wr.wr_id = 1'000'001 + k;  // Never a multiple of 8: no re-post.
      post.wr.src = srcs[0];
      post.doomed = true;
      EXPECT_TRUE(issue(post));
    }
    EXPECT_GE(a_.Outstanding(qps[0][0]), 16u);
    a_.DestroyQp(qps[0][0]);
  });
  sim_.Run();

  size_t accepted = 0;
  for (size_t i = 0; i < posts.size(); ++i) {
    EXPECT_EQ(posts[i].completions, posts[i].accepted ? 1 : 0) << "post " << i;
    accepted += posts[i].accepted ? 1 : 0;
  }
  EXPECT_GT(accepted, static_cast<size_t>(kPosts));
  uint64_t counted = 0;
  for (RdmaEngine* engine : engines) {
    MetricLabels labels = MetricLabels::Node(engine->node());
    labels.tenant = kTenant;
    counted += RegistryCounter(env_.metrics(), "rnic_ack_timeouts", labels);
  }
  EXPECT_EQ(counted, static_cast<uint64_t>(timeouts));
  EXPECT_GT(timeouts, 300);
  EXPECT_GT(reposts_after_ack, 100);
  EXPECT_GT(lost_reposts_after_ack, 0);
  EXPECT_GT(doomed_timeouts, 0);
  // No pending-ACK state is left: the timers disarmed with empty queues.
  EXPECT_EQ(sim_.pending_events(), 0u);
  for (int side = 0; side < 2; ++side) {
    for (int pair = 0; pair < kPairs; ++pair) {
      EXPECT_EQ(engines[side]->Outstanding(qps[side][pair]), 0u);
    }
  }
}

// A second WR under a wr_id still in flight on the same QP is refused before
// it touches any state; the first WR completes exactly once.
TEST_F(RdmaEngineTest, SecondPostUnderOutstandingWrIdIsRefused) {
  PostRecvs(2);
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(1, 64);
  std::vector<Completion> sends;
  a_.cq().SetHandler([&](const Completion& cqe) { sends.push_back(cqe); });
  int hook_calls = 0;
  WorkRequest wr;
  wr.opcode = RdmaOpcode::kSend;
  wr.wr_id = 42;
  wr.src = src;
  ASSERT_TRUE(a_.PostWr(qp_a_, wr));
  const uint64_t sends_before = RnicCounter(a_, "rnic_sends");
  const uint64_t bytes_before = RnicCounter(a_, "rnic_bytes_tx");
  const size_t events_before = sim_.pending_events();
  EXPECT_FALSE(a_.PostWr(qp_a_, wr, [&hook_calls](const Completion&) { ++hook_calls; }));
  EXPECT_EQ(a_.Outstanding(qp_a_), 1u);
  EXPECT_EQ(RnicCounter(a_, "rnic_sends"), sends_before);
  EXPECT_EQ(RnicCounter(a_, "rnic_bytes_tx"), bytes_before);
  EXPECT_EQ(sim_.pending_events(), events_before);
  sim_.Run();
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0].wr_id, 42u);
  EXPECT_EQ(sends[0].status, WrStatus::kSuccess);
  EXPECT_EQ(hook_calls, 0);
  EXPECT_EQ(a_.Outstanding(qp_a_), 0u);
  EXPECT_EQ(RnicCounter(b_, "rnic_recv_completions"), 1u);
  // Once the first WR completed, the wr_id is free again.
  EXPECT_TRUE(a_.PostWr(qp_a_, wr));
  sim_.Run();
  EXPECT_EQ(sends.size(), 2u);
}

TEST_F(RdmaEngineTest, RnrBackoffRetriesUntilBufferPosted) {
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(1, 64);
  bool got_recv = false;
  b_.cq().SetHandler([&](const Completion& cqe) {
    got_recv |= cqe.opcode == RdmaOpcode::kRecv;
  });
  ASSERT_TRUE(a_.PostSend(qp_a_, *src, 1));
  // Post the receive buffer only after two backoff periods.
  sim_.Schedule(2 * cost_.rnic_rnr_backoff + 10 * kMicrosecond, [&]() { PostRecvs(1); });
  sim_.Run();
  EXPECT_TRUE(got_recv);
  EXPECT_GE(RnicCounter(b_, "rnic_rnr_events"), 2u);
  EXPECT_EQ(RnicCounter(b_, "rnic_rnr_failures"), 0u);
}

TEST_F(RdmaEngineTest, RnrRetryExhaustionFailsTheSend) {
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(1, 64);
  WrStatus status = WrStatus::kSuccess;
  a_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kSend) {
      status = cqe.status;
    }
  });
  ASSERT_TRUE(a_.PostSend(qp_a_, *src, 1));
  sim_.Run();  // No receive buffer ever posted.
  EXPECT_EQ(status, WrStatus::kRnrRetryExceeded);
  EXPECT_GE(RnicCounter(b_, "rnic_rnr_failures"), 1u);
}

TEST_F(RdmaEngineTest, OneSidedWriteRequiresRemoteWriteAccess) {
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(1, 128);
  WrStatus status = WrStatus::kSuccess;
  a_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kWrite) {
      status = cqe.status;
    }
  });
  // pool_b_ was registered kMrLocal only: remote writes must be rejected.
  ASSERT_TRUE(a_.PostWrite(qp_a_, *src, pool_b_->id(), 0, 7));
  sim_.Run();
  EXPECT_EQ(status, WrStatus::kRemoteAccessError);
  EXPECT_EQ(b_.mr_table().access_violations(), 1u);
}

TEST_F(RdmaEngineTest, OneSidedWriteLandsWhenPermitted) {
  b_.mr_table().Register(pool_b_, kMrRemoteWrite);
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(9, 512);
  const uint64_t sum = Checksum(src->payload());
  WrStatus status = WrStatus::kQpError;
  a_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kWrite) {
      status = cqe.status;
    }
  });
  ASSERT_TRUE(a_.PostWrite(qp_a_, *src, pool_b_->id(), 3, 7));
  sim_.Run();
  EXPECT_EQ(status, WrStatus::kSuccess);
  Buffer* target = pool_b_->Resolve(BufferDescriptor{pool_b_->id(), 3, 0, 0});
  EXPECT_EQ(target->length, 512u);
  EXPECT_EQ(Checksum(target->payload()), sum);
}

TEST_F(RdmaEngineTest, ObliviousOverwriteOfFunctionOwnedBufferCounted) {
  b_.mr_table().Register(pool_b_, kMrRemoteWrite);
  // A local function owns buffer 0 — the data-race scenario of section 2.1.
  Buffer* owned = pool_b_->Get(OwnerId::Function(88));
  ASSERT_EQ(owned->index, 31u);  // LIFO free list: last buffer first.
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(1, 64);
  ASSERT_TRUE(a_.PostWrite(qp_a_, *src, pool_b_->id(), owned->index, 7));
  sim_.Run();
  EXPECT_EQ(RnicCounter(b_, "rnic_oblivious_overwrites"), 1u);
  // The write went through anyway — one-sided RDMA cannot know better.
  EXPECT_EQ(owned->length, 64u);
}

// wr_ids are chosen per poster, so two QPs may have WRITEs in flight under
// the same wr_id; each completes once, on its own QP, with its own length.
TEST_F(RdmaEngineTest, ConcurrentWritesWithEqualWrIdOnTwoQpsCompleteSeparately) {
  b_.mr_table().Register(pool_b_, kMrRemoteWrite);
  const auto [qp_a2, qp_b2] = RdmaEngine::CreateConnectedPair(a_, b_, kTenant);
  (void)qp_b2;
  Buffer* src_1 = pool_a_->Get(OwnerId::Rnic(1));
  Buffer* src_2 = pool_a_->Get(OwnerId::Rnic(1));
  src_1->FillPattern(5, 1024);
  src_2->FillPattern(6, 512);
  std::vector<Completion> writes;
  a_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kWrite) {
      writes.push_back(cqe);
    }
  });
  ASSERT_TRUE(a_.PostWrite(qp_a_, *src_1, pool_b_->id(), 4, 9));
  ASSERT_TRUE(a_.PostWrite(qp_a2, *src_2, pool_b_->id(), 6, 9));
  EXPECT_EQ(a_.Outstanding(qp_a_), 1u);
  EXPECT_EQ(a_.Outstanding(qp_a2), 1u);
  sim_.Run();
  ASSERT_EQ(writes.size(), 2u);
  EXPECT_NE(writes[0].qp, writes[1].qp);
  for (const Completion& cqe : writes) {
    EXPECT_EQ(cqe.status, WrStatus::kSuccess);
    EXPECT_EQ(cqe.wr_id, 9u);
    EXPECT_EQ(cqe.byte_len, cqe.qp == qp_a_ ? 1024u : 512u);
  }
  EXPECT_EQ(a_.Outstanding(qp_a_), 0u);
  EXPECT_EQ(a_.Outstanding(qp_a2), 0u);
  Buffer* remote_1 = pool_b_->Resolve(BufferDescriptor{pool_b_->id(), 4, 0, 0});
  Buffer* remote_2 = pool_b_->Resolve(BufferDescriptor{pool_b_->id(), 6, 0, 0});
  EXPECT_EQ(Checksum(remote_1->payload()), Checksum(src_1->payload()));
  EXPECT_EQ(Checksum(remote_2->payload()), Checksum(src_2->payload()));
}

// An injected duplicate on the wire clones the in-flight packet: the receiver
// gets two independent, byte-identical deliveries, and the poster still sees
// exactly one completion (the second ACK finds no pending WR).
class RdmaDuplicateTest : public RdmaEngineTest,
                          public ::testing::WithParamInterface<FaultSite> {};

TEST_P(RdmaDuplicateTest, DuplicatedSendLandsTwiceAndCompletesOnce) {
  FaultSpec dup;
  dup.site = GetParam();
  dup.action = FaultAction::kDuplicate;
  dup.max_injections = 1;
  ASSERT_GE(env_.faults().Install(dup), 0);
  PostRecvs(2);
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(21, 3000);
  const uint64_t src_sum = Checksum(src->payload());
  std::vector<Buffer*> landed;
  b_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kRecv) {
      EXPECT_EQ(cqe.byte_len, 3000u);
      landed.push_back(cqe.buffer);
    }
  });
  int send_completions = 0;
  a_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kSend) {
      EXPECT_EQ(cqe.status, WrStatus::kSuccess);
      ++send_completions;
    }
  });
  ASSERT_TRUE(a_.PostSend(qp_a_, *src, 42));
  sim_.Run();
  ASSERT_EQ(landed.size(), 2u);
  EXPECT_NE(landed[0], landed[1]);
  EXPECT_EQ(Checksum(landed[0]->payload()), src_sum);
  EXPECT_EQ(Checksum(landed[1]->payload()), src_sum);
  EXPECT_EQ(send_completions, 1);
  EXPECT_EQ(a_.Outstanding(qp_a_), 0u);
}

// Every path that clones a packet: the RNIC TX and RX pipes copy the
// PacketRef itself, the fabric and the link Clone() the delivery holding it.
INSTANTIATE_TEST_SUITE_P(EveryClonePath, RdmaDuplicateTest,
                         ::testing::Values(FaultSite::kFabric, FaultSite::kLink,
                                           FaultSite::kRnicTx, FaultSite::kRnicRx));

// The payload is snapshotted when the WR is posted: overwriting the source
// before the packet is delivered cannot change the bytes in flight.
TEST_F(RdmaEngineTest, SendCarriesTheBytesOfPostTime) {
  PostRecvs(1);
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(31, 1500);
  const uint64_t posted_sum = Checksum(src->payload());
  Buffer* landed = nullptr;
  b_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kRecv) {
      landed = cqe.buffer;
    }
  });
  ASSERT_TRUE(a_.PostSend(qp_a_, *src, 1));
  src->FillPattern(32, 1500);  // The sender breaks the ownership rule.
  ASSERT_NE(Checksum(src->payload()), posted_sum);
  sim_.Run();
  ASSERT_NE(landed, nullptr);
  EXPECT_EQ(landed->length, 1500u);
  EXPECT_EQ(Checksum(landed->payload()), posted_sum);
}

TEST_F(RdmaEngineTest, WriteCarriesTheBytesOfPostTime) {
  b_.mr_table().Register(pool_b_, kMrRemoteWrite);
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(41, 700);
  const uint64_t posted_sum = Checksum(src->payload());
  ASSERT_TRUE(a_.PostWrite(qp_a_, *src, pool_b_->id(), 5, 1));
  src->FillPattern(42, 700);
  ASSERT_NE(Checksum(src->payload()), posted_sum);
  sim_.Run();
  const Buffer* target = pool_b_->Resolve(BufferDescriptor{pool_b_->id(), 5, 0, 0});
  EXPECT_EQ(target->length, 700u);
  EXPECT_EQ(Checksum(target->payload()), posted_sum);
}

// A released packet keeps its payload's capacity but none of its bytes or
// header fields.
TEST(PacketPoolTest, RecycledPacketKeepsCapacityNotContents) {
  auto* pool = new PacketPool;
  {
    PacketRef pkt = pool->Acquire();
    pkt->kind = RdmaPacket::Kind::kWrite;
    pkt->wr_id = 9;
    pkt->rnr_attempts = 3;
    pkt->payload.assign(3000, std::byte{0x5a});
  }
  EXPECT_EQ(pool->live(), 0u);
  PacketRef again = pool->Acquire();
  EXPECT_EQ(pool->capacity(), 1u);  // The same slot came back.
  EXPECT_TRUE(again->payload.empty());
  EXPECT_GE(again->payload.capacity(), 3000u);
  EXPECT_EQ(again->kind, RdmaPacket::Kind::kSend);
  EXPECT_EQ(again->wr_id, 0u);
  EXPECT_EQ(again->rnr_attempts, 0);
  PacketRef clone(again);  // The only copy path: a fresh slot.
  EXPECT_EQ(pool->capacity(), 2u);
  EXPECT_EQ(pool->live(), 2u);
  pool->Retire();  // Handles still live: the pool outlives its owner.
  again = PacketRef();
  EXPECT_EQ(pool->live(), 1u);
}  // `clone` releases the last handle, which deletes the pool.

// Recycled packets that once carried 3000 bytes deliver exactly the new,
// shorter payload: nothing stale rides along.
TEST_F(RdmaEngineTest, RecycledPacketsDeliverOnlyTheirNewBytes) {
  PostRecvs(3);
  Buffer* big = pool_a_->Get(OwnerId::Rnic(1));
  big->FillPattern(51, 3000);
  std::vector<Completion> recvs;
  b_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kRecv) {
      recvs.push_back(cqe);
    }
  });
  ASSERT_TRUE(a_.PostSend(qp_a_, *big, 1));
  sim_.Run();
  ASSERT_EQ(recvs.size(), 1u);
  const size_t slots = network_.packets().capacity();  // The SEND and its ACK.
  ASSERT_EQ(network_.packets().live(), 0u);
  Buffer* small_a = pool_a_->Get(OwnerId::Rnic(1));
  small_a->FillPattern(52, 100);
  Buffer* small_b = pool_a_->Get(OwnerId::Rnic(1));
  small_b->FillPattern(53, 60);
  ASSERT_TRUE(a_.PostSend(qp_a_, *small_a, 2));
  ASSERT_TRUE(a_.PostSend(qp_a_, *small_b, 3));
  EXPECT_EQ(network_.packets().capacity(), slots);  // Both WRs reused a slot.
  sim_.Run();
  ASSERT_EQ(recvs.size(), 3u);
  EXPECT_EQ(recvs[1].byte_len, 100u);
  EXPECT_EQ(Checksum(recvs[1].buffer->payload()), Checksum(small_a->payload()));
  EXPECT_EQ(recvs[2].byte_len, 60u);
  EXPECT_EQ(Checksum(recvs[2].buffer->payload()), Checksum(small_b->payload()));
  EXPECT_EQ(RnicCounter(b_, "rnic_bytes_rx"), 3000u + 100u + 60u);
}

// Teardown in the middle of a crossing. The fixture destroys the engines,
// then the network (and its packet pool's owner), then the simulator, whose
// queued events still hold packets: the pool must outlive them. Run under
// the address sanitizer leg, this is the use-after-free check.
TEST_F(RdmaEngineTest, TeardownWithPacketsInFlightIsClean) {
  FaultSpec dup;
  dup.site = FaultSite::kFabric;
  dup.action = FaultAction::kDuplicate;
  dup.max_injections = 1;
  ASSERT_GE(env_.faults().Install(dup), 0);
  PostRecvs(3);
  std::vector<Buffer*> srcs;
  for (uint64_t wr = 1; wr <= 3; ++wr) {
    srcs.push_back(pool_a_->Get(OwnerId::Rnic(1)));
    srcs.back()->FillPattern(wr, 2048);
    ASSERT_TRUE(a_.PostSend(qp_a_, *srcs.back(), wr));
  }
  // One WR in the TX pipe's service, two queued behind it.
  ASSERT_EQ(network_.packets().live(), 3u);
  // Step until the first SEND crosses the fabric and is duplicated there.
  while (network_.packets().live() < 4 && sim_.Step()) {
  }
  ASSERT_EQ(network_.packets().live(), 4u);
  EXPECT_EQ(RnicCounter(b_, "rnic_recv_completions"), 0u);
  EXPECT_GT(sim_.pending_events(), 0u);
}

TEST_F(RdmaEngineTest, SendOnUnconnectedQpRejected) {
  const QpNum lonely = a_.CreateQp(kTenant);
  Buffer* src = pool_a_->Get(OwnerId::External(1));
  EXPECT_FALSE(a_.PostSend(lonely, *src, 1));
}

TEST_F(RdmaEngineTest, PostRecvValidatesOwnershipAndTenant) {
  Buffer* buffer = pool_b_->Get(OwnerId::External(2));
  // Wrong claimed owner: rejected, ownership unchanged.
  EXPECT_FALSE(b_.PostRecvBuffer(pool_b_, buffer, OwnerId::External(3), 1));
  EXPECT_EQ(buffer->owner, OwnerId::External(2));
  EXPECT_TRUE(b_.PostRecvBuffer(pool_b_, buffer, OwnerId::External(2), 1));
  EXPECT_EQ(buffer->owner, OwnerId::Rnic(2));
}

TEST_F(RdmaEngineTest, PerTenantTxBytesAccumulate) {
  PostRecvs(2);
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(1, 1000);
  a_.PostSend(qp_a_, *src, 1);
  a_.PostSend(qp_a_, *src, 2);
  sim_.Run();
  EXPECT_GE(a_.TenantBytesTx(kTenant), 2 * 1000u);
  EXPECT_EQ(a_.TenantBytesTx(kTenant + 1), 0u);
}

TEST_F(RdmaEngineTest, TwoSided64ByteEchoPathLatencyIsMicroseconds) {
  // One-way small-message latency through the NIC pipelines and fabric lands
  // in the low single-digit microseconds (sanity anchor for Fig. 12).
  PostRecvs(1);
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(1, 64);
  SimTime arrival = 0;
  b_.cq().SetHandler([&](const Completion& cqe) {
    if (cqe.opcode == RdmaOpcode::kRecv) {
      arrival = sim_.now();
    }
  });
  a_.PostSend(qp_a_, *src, 1);
  sim_.Run();
  EXPECT_GT(arrival, 1 * kMicrosecond);
  EXPECT_LT(arrival, 6 * kMicrosecond);
}

TEST(QpCacheTest, LruEvictionAndHitTracking) {
  QpCache cache(2);
  EXPECT_FALSE(cache.Touch(1));  // Miss, insert.
  EXPECT_FALSE(cache.Touch(2));
  EXPECT_TRUE(cache.Touch(1));  // Hit.
  EXPECT_FALSE(cache.Touch(3));  // Evicts 2 (LRU).
  EXPECT_FALSE(cache.Touch(2));  // Miss again.
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.resident(), 2u);
}

TEST(QpCacheTest, ExplicitEvictFreesSlot) {
  QpCache cache(2);
  cache.Touch(1);
  cache.Touch(2);
  cache.Evict(1);
  EXPECT_EQ(cache.resident(), 1u);
  EXPECT_FALSE(cache.Touch(3));
  EXPECT_TRUE(cache.Touch(2));  // 2 survived because 1 was evicted explicitly.
}

TEST_F(RdmaEngineTest, QpCacheThrashingUnderManyActiveQps) {
  // More QPs than cache entries: misses dominate — the thrashing the DNE's
  // bounded-active-QP policy avoids (section 3.3).
  PostRecvs(0);
  const int qp_count = cost_.rnic_qp_cache_entries * 2;
  std::vector<QpNum> qps;
  for (int i = 0; i < qp_count; ++i) {
    qps.push_back(RdmaEngine::CreateConnectedPair(a_, b_, kTenant).first);
  }
  Buffer* src = pool_a_->Get(OwnerId::Rnic(1));
  src->FillPattern(1, 0);
  const uint64_t misses_before = a_.qp_cache().misses();
  for (int round = 0; round < 3; ++round) {
    for (const QpNum qp : qps) {
      // A fresh wr_id per round: the previous round's WR is still in flight.
      ASSERT_TRUE(a_.PostSend(qp, *src, 1 + static_cast<uint64_t>(round)));
    }
  }
  const uint64_t misses = a_.qp_cache().misses() - misses_before;
  // Round-robin over 2x the cache capacity: every touch misses.
  EXPECT_GE(misses, static_cast<uint64_t>(qp_count) * 3);
}

}  // namespace
}  // namespace nadino
