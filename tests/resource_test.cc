// Tests for FIFO resources (cores, DMA engines) and links.

#include "src/sim/link.h"
#include "src/sim/resource.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

namespace nadino {
namespace {

TEST(FifoResourceTest, JobsRunInOrder) {
  Simulator sim;
  FifoResource core(&sim, "core");
  std::vector<int> order;
  core.Submit(100, [&]() { order.push_back(1); });
  core.Submit(50, [&]() { order.push_back(2); });
  core.Submit(10, [&]() { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 160);
}

TEST(FifoResourceTest, SerializesWork) {
  Simulator sim;
  FifoResource core(&sim, "core");
  SimTime first_done = 0;
  SimTime second_done = 0;
  core.Submit(100, [&]() { first_done = sim.now(); });
  core.Submit(100, [&]() { second_done = sim.now(); });
  sim.Run();
  EXPECT_EQ(first_done, 100);
  EXPECT_EQ(second_done, 200);
}

TEST(FifoResourceTest, SpeedFactorScalesServiceTime) {
  Simulator sim;
  FifoResource wimpy(&sim, "dpu", 2.0);
  SimTime done = 0;
  wimpy.Submit(100, [&]() { done = sim.now(); });
  sim.Run();
  EXPECT_EQ(done, 200);
}

TEST(FifoResourceTest, QueueDepthCountsWaitingAndInService) {
  Simulator sim;
  FifoResource core(&sim, "core");
  core.Submit(100, nullptr);
  core.Submit(100, nullptr);
  core.Submit(100, nullptr);
  EXPECT_EQ(core.queue_depth(), 3u);
  sim.RunUntil(150);
  EXPECT_EQ(core.queue_depth(), 2u);
  sim.Run();
  EXPECT_EQ(core.queue_depth(), 0u);
  EXPECT_EQ(core.jobs_completed(), 3u);
}

TEST(FifoResourceTest, BusyTimeAccumulates) {
  Simulator sim;
  FifoResource core(&sim, "core");
  core.Submit(100, nullptr);
  sim.Schedule(500, [&]() { core.Submit(200, nullptr); });
  sim.Run();
  EXPECT_EQ(core.busy_time(), 300);
}

TEST(FifoResourceTest, WindowUtilization) {
  Simulator sim;
  FifoResource core(&sim, "core");
  core.Submit(400, nullptr);
  sim.RunUntil(1000);
  EXPECT_NEAR(core.WindowUtilization(), 0.4, 0.01);
  core.ResetWindow();
  sim.RunUntil(2000);
  EXPECT_NEAR(core.WindowUtilization(), 0.0, 0.01);
}

TEST(FifoResourceTest, PinnedReportsFullUtilization) {
  Simulator sim;
  FifoResource core(&sim, "core");
  core.set_pinned(true);
  core.Submit(100, nullptr);
  sim.RunUntil(1000);
  EXPECT_DOUBLE_EQ(core.WindowUtilization(), 1.0);
  EXPECT_NEAR(core.WindowUsefulUtilization(), 0.1, 0.01);
}

TEST(FifoResourceTest, CompletionCallbackSubmitsQueueBehindWaiters) {
  Simulator sim;
  FifoResource core(&sim, "core");
  std::vector<int> order;
  core.Submit(10, [&]() {
    order.push_back(1);
    core.Submit(10, [&]() { order.push_back(3); });
  });
  core.Submit(10, [&]() { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(FifoResourceTest, ZeroAndNegativeServiceTimes) {
  Simulator sim;
  FifoResource core(&sim, "core");
  int done = 0;
  core.Submit(0, [&]() { ++done; });
  core.Submit(-100, [&]() { ++done; });
  sim.Run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(sim.now(), 0);
}

TEST(FifoResourceTest, AcceptsMoveOnlyCaptures) {
  Simulator sim;
  FifoResource core(&sim, "core");
  auto token = std::make_unique<int>(7);
  int seen = 0;
  core.Submit(10, [token = std::move(token), &seen]() { seen = *token; });
  sim.Run();
  EXPECT_EQ(seen, 7);
  EXPECT_EQ(core.callback_spills(), 0u);
}

// More jobs than the ring's initial capacity queue behind a busy server,
// with completions (and fresh submissions) in between, so the ring both
// grows and wraps around.
TEST(FifoResourceTest, FifoOrderAndDepthHoldAcrossRingGrowthAndWrap) {
  Simulator sim;
  FifoResource core(&sim, "core");
  std::vector<int> order;
  int next = 0;
  auto submit = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const int id = next++;
      core.Submit(10, [&order, id]() { order.push_back(id); });
    }
  };
  submit(5);
  sim.RunUntil(25);  // Two done, one in service, two waiting.
  EXPECT_EQ(core.queue_depth(), 3u);
  submit(30);  // Grows past the initial capacity while the head is offset.
  EXPECT_EQ(core.queue_depth(), 33u);
  sim.RunUntil(125);  // Ten more done.
  EXPECT_EQ(core.queue_depth(), 23u);
  submit(12);
  EXPECT_EQ(core.queue_depth(), 35u);
  sim.Run();
  ASSERT_EQ(order.size(), 47u);
  for (int i = 0; i < 47; ++i) {
    EXPECT_EQ(order[i], i);
  }
  EXPECT_EQ(core.queue_depth(), 0u);
  EXPECT_EQ(core.jobs_completed(), 47u);
  EXPECT_EQ(sim.now(), 470);
}

TEST(FifoResourceTest, NullAndEmptyFunctionOnlyConsumeTime) {
  Simulator sim;
  FifoResource core(&sim, "core");
  int done = 0;
  core.Submit(100, nullptr);
  core.Submit(100, std::function<void()>());
  core.Consume(100);
  core.Submit(100, [&]() { done = static_cast<int>(sim.now()); });
  EXPECT_EQ(core.queue_depth(), 4u);
  sim.Run();
  EXPECT_EQ(done, 400);
  EXPECT_EQ(core.jobs_completed(), 4u);
  EXPECT_EQ(core.busy_time(), 400);
}

TEST(FifoResourceTest, OversizedCaptureSpillsAndStillRuns) {
  Simulator sim;
  FifoResource core(&sim, "core");
  struct Big {
    unsigned char bytes[FifoResource::Callback::kInlineBytes + 8];
  };
  Big big{};
  big.bytes[0] = 9;
  int seen = 0;
  core.Submit(10, [big, &seen]() { seen = big.bytes[0]; });
  sim.Run();
  EXPECT_EQ(seen, 9);
  EXPECT_EQ(core.callback_spills(), 1u);
}

TEST(LinkTest, SerializationPlusPropagation) {
  Simulator sim;
  // 8 Gbit/s == 1 byte/ns; 1000 bytes -> 1000 ns + 500 ns propagation.
  Link link(&sim, 8.0, 500);
  SimTime delivered = 0;
  link.Transfer(1000, [&]() { delivered = sim.now(); });
  sim.Run();
  EXPECT_EQ(delivered, 1500);
  EXPECT_EQ(link.bytes_transferred(), 1000u);
}

TEST(LinkTest, BackToBackMessagesSerializeButOverlapPropagation) {
  Simulator sim;
  Link link(&sim, 8.0, 500);
  SimTime first = 0;
  SimTime second = 0;
  link.Transfer(1000, [&]() { first = sim.now(); });
  link.Transfer(1000, [&]() { second = sim.now(); });
  sim.Run();
  EXPECT_EQ(first, 1500);
  // Second message finishes serializing at 2000, arrives 2500 — its
  // propagation overlapped the first message's.
  EXPECT_EQ(second, 2500);
}

TEST(LinkTest, BacklogDeliversAtMultiplesOfSerialization) {
  Simulator sim;
  Link link(&sim, 8.0, 500);
  std::vector<SimTime> delivered;
  for (int i = 0; i < 10; ++i) {
    link.Transfer(1000, [&]() { delivered.push_back(sim.now()); });
  }
  sim.Run();
  ASSERT_EQ(delivered.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(delivered[i], (i + 1) * 1000 + 500) << "message " << i;
  }
  // Closed form: one event per message, its delivery.
  EXPECT_EQ(sim.events_processed(), 10u);
}

TEST(LinkTest, LagDelaysArrivalButNotTheNextDeparture) {
  Simulator sim;
  Link link(&sim, 8.0, 500);
  SimTime lagged = 0;
  SimTime next = 0;
  link.Transfer(1000, [&]() { lagged = sim.now(); }, kInvalidTenant, /*lag=*/300);
  link.Transfer(1000, [&]() { next = sim.now(); });
  sim.Run();
  EXPECT_EQ(lagged, 1800);
  EXPECT_EQ(next, 2500);
}

TEST(LinkTest, IdleLinkSerializesFromNow) {
  Simulator sim;
  Link link(&sim, 8.0, 500);
  SimTime first = 0;
  SimTime late = 0;
  link.Transfer(1000, [&]() { first = sim.now(); });
  // Sent after the first message has left the wire: no queueing behind it.
  sim.ScheduleAt(5000, [&]() { link.Transfer(1000, [&]() { late = sim.now(); }); });
  sim.Run();
  EXPECT_EQ(first, 1500);
  EXPECT_EQ(late, 6500);
}

}  // namespace
}  // namespace nadino
