// Unit tests for the discrete-event simulation core.

#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace nadino {
namespace {

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.events_processed(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(300, [&]() { order.push_back(3); });
  sim.Schedule(100, [&]() { order.push_back(1); });
  sim.Schedule(200, [&]() { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300);
}

TEST(SimulatorTest, SameInstantEventsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(50, [&order, i]() { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.Schedule(100, [&]() {
    sim.Schedule(-50, [&]() { EXPECT_EQ(sim.now(), 100); });
  });
  sim.Run();
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 100) {
      sim.Schedule(10, recurse);
    }
  };
  sim.Schedule(10, recurse);
  sim.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), 1000);
}

TEST(SimulatorTest, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(100, [&]() { ++fired; });
  sim.Schedule(200, [&]() { ++fired; });
  sim.Schedule(300, [&]() { ++fired; });
  sim.RunUntil(250);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 250);
  sim.Run();
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, RunUntilWithEmptyQueueAdvancesClock) {
  Simulator sim;
  sim.RunUntil(5000);
  EXPECT_EQ(sim.now(), 5000);
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim;
  sim.RunUntil(1000);
  sim.RunFor(500);
  EXPECT_EQ(sim.now(), 1500);
}

TEST(SimulatorTest, StopInterruptsRun) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(100, [&]() {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(200, [&]() { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, StepExecutesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&]() { ++fired; });
  sim.Schedule(20, [&]() { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, PendingEventsTracksLiveEvents) {
  Simulator sim;
  sim.Schedule(10, []() {});
  sim.Schedule(20, []() {});
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, DeterministicEventCount) {
  auto run = []() {
    Simulator sim;
    uint64_t count = 0;
    std::function<void(int)> spawn = [&](int depth) {
      ++count;
      if (depth < 12) {
        sim.Schedule(7, [&spawn, depth]() { spawn(depth + 1); });
        sim.Schedule(13, [&spawn, depth]() { spawn(depth + 1); });
      }
    };
    sim.Schedule(0, [&]() { spawn(0); });
    sim.Run();
    return std::pair(count, sim.now());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace nadino
