// Slab/heap stress for the rewritten simulator core (DESIGN.md §3c): millions
// of schedule/batch/fire operations from a seeded RNG, asserting the
// invariants the hot-path rewrite must preserve — the (when, seq) total
// order, pending_events() accuracy under churn, and slot reuse — and a
// std::set reference run through the far-future tier and every shard count.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace nadino {
namespace {

// ~1.2M schedules (per item and in batches) + fires, interleaved with bursts
// of RunFor and Step so the free list, heaps and tier cycle through many
// shapes.
TEST(SimulatorStressTest, MillionOpChurnPreservesInvariants) {
  Simulator sim;
  sim.SetShardCount(3);
  Rng prng(0xdeadbeefULL);
  uint64_t scheduled = 0;
  uint64_t fired = 0;
  SimTime last_fire_time = 0;
  uint64_t last_fire_seq = 0;
  uint64_t next_seq_tag = 1;
  bool order_ok = true;
  // Events must fire in non-decreasing time; at equal times, in scheduling
  // order (tag is monotonic in scheduling order, but events scheduled later
  // can legally fire earlier at earlier times, so only compare tags within
  // one timestamp).
  auto fire = [&](uint64_t tag) {
    const SimTime now = sim.now();
    if (now < last_fire_time) {
      order_ok = false;
    } else if (now == last_fire_time && tag <= last_fire_seq) {
      order_ok = false;
    }
    last_fire_time = now;
    last_fire_seq = tag;
    ++fired;
  };

  constexpr int kRounds = 300;
  constexpr int kBatch = 4000;  // 300 * 4000 = 1.2M scheduled events.
  std::vector<SimTime> whens(kBatch);
  for (int round = 0; round < kRounds; ++round) {
    if (round % 3 == 2) {
      // One batch onto a rotating shard, some of it far enough out for the tier.
      for (SimTime& when : whens) {
        when = sim.now() + static_cast<SimDuration>(prng.NextU64() % 200000);
      }
      const uint64_t first = next_seq_tag;
      next_seq_tag += kBatch;
      sim.ScheduleBatch(static_cast<uint32_t>(round), whens, [&fire, first](size_t i) {
        return [&fire, tag = first + i]() { fire(tag); };
      });
    } else {
      for (int i = 0; i < kBatch; ++i) {
        const SimDuration delay = static_cast<SimDuration>(prng.NextU64() % 5000);
        sim.ScheduleOn(static_cast<uint32_t>(i), delay,
                       [&fire, tag = next_seq_tag++]() { fire(tag); });
      }
    }
    scheduled += kBatch;
    // Fire roughly half the horizon; the rest carries into the next round.
    if (round % 5 == 4) {
      for (int i = 0; i < 1000; ++i) {
        sim.Step();
      }
    } else {
      sim.RunFor(2500);
    }
    EXPECT_EQ(sim.pending_events(), scheduled - fired);
  }
  sim.Run();
  EXPECT_TRUE(order_ok) << "events fired out of (when, seq) order";
  EXPECT_EQ(fired, scheduled);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_GE(scheduled, 1'000'000u);
}

// pending_events() must track scheduled - fired exactly through arbitrary
// interleavings of schedules and run slices, including events that schedule
// more events.
TEST(SimulatorStressTest, PendingCountStaysExact) {
  Simulator sim;
  Rng prng(42);
  uint64_t live = 0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 500; ++i) {
      const bool respawn = i % 4 == 0;
      sim.Schedule(static_cast<SimDuration>(prng.NextU64() % 1000), [&sim, &live, respawn]() {
        --live;
        if (respawn) {
          ++live;
          sim.Schedule(700, [&live]() { --live; });
        }
      });
      ++live;
    }
    EXPECT_EQ(sim.pending_events(), live);
    sim.RunFor(500);
    EXPECT_EQ(sim.pending_events(), live);
  }
  sim.Run();
  EXPECT_EQ(live, 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Steady-state churn reuses slab slots through the free list: once the
// working set is warm, slab_slots() must stay flat no matter how many more
// events cycle through (the no-allocation property's structural half; the
// operator-new half is asserted by simulator_alloc_test.cc).
TEST(SimulatorStressTest, SlabStaysFlatInSteadyState) {
  Simulator sim;
  Rng prng(7);
  auto churn = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (int i = 0; i < 256; ++i) {
        sim.Schedule(static_cast<SimDuration>(prng.NextU64() % 100), []() {});
      }
      sim.RunFor(200);
    }
  };
  churn(50);  // Warm-up: the slab grows to the working-set size.
  sim.Run();
  const size_t warm_slots = sim.slab_slots();
  churn(500);  // 10x more churn...
  sim.Run();
  EXPECT_EQ(sim.slab_slots(), warm_slots);  // ...zero slab growth.
}

// --- Queue order against a reference ---------------------------------------
//
// The tests below pin that the tier, the shard merge and ScheduleBatch never
// change which events run or in what (when, seq) order, and keep
// pending_events() exact.

// The reference queue: a std::set ordered on (when, tag), where tags are
// handed out in scheduling order exactly like the simulator's seq.
class ReferenceQueue {
 public:
  SimTime now() const { return now_; }
  uint64_t Arm(SimDuration delay, std::function<void()> fn) {
    const uint64_t tag = next_tag_++;
    order_.emplace(now_ + delay, tag);
    callbacks_.emplace(tag, std::move(fn));
    return tag;
  }
  uint64_t ArmBatch(const std::vector<SimDuration>& delays,
                    const std::function<std::function<void()>(size_t)>& make) {
    const uint64_t first = next_tag_;
    for (size_t i = 0; i < delays.size(); ++i) {
      Arm(delays[i], make(i));
    }
    return first;
  }
  void RunFor(SimDuration span) {
    const SimTime deadline = now_ + span;
    while (!order_.empty() && order_.begin()->first <= deadline) {
      RunNext();
    }
    now_ = deadline;
  }
  bool Step() {
    if (order_.empty()) {
      return false;
    }
    RunNext();
    return true;
  }
  void Reshard(uint32_t) {}
  size_t pending() const { return callbacks_.size(); }

 private:
  // Pops the earliest entry and runs it.
  void RunNext() {
    const auto [when, tag] = *order_.begin();
    order_.erase(order_.begin());
    const auto it = callbacks_.find(tag);
    std::function<void()> fn = std::move(it->second);
    callbacks_.erase(it);
    now_ = when;
    fn();
  }

  SimTime now_ = 0;
  uint64_t next_tag_ = 0;
  std::set<std::pair<SimTime, uint64_t>> order_;
  std::map<uint64_t, std::function<void()>> callbacks_;
};

// The simulator behind the same interface; events are spread over the
// shards round-robin so every heap and tier takes part.
class SimulatorQueue {
 public:
  explicit SimulatorQueue(uint32_t shards) { sim_.SetShardCount(shards); }
  SimTime now() const { return sim_.now(); }
  uint64_t Arm(SimDuration delay, std::function<void()> fn) {
    const uint64_t tag = next_tag_++;
    sim_.ScheduleOn(static_cast<uint32_t>(tag), delay, std::move(fn));
    return tag;
  }
  // One batch onto the shard of its first tag; tags follow in index order.
  uint64_t ArmBatch(const std::vector<SimDuration>& delays,
                    const std::function<std::function<void()>(size_t)>& make) {
    const uint64_t first = next_tag_;
    next_tag_ += delays.size();
    std::vector<SimTime> whens;
    for (const SimDuration delay : delays) {
      whens.push_back(sim_.now() + delay);
    }
    sim_.ScheduleBatch(static_cast<uint32_t>(first), whens, make);
    return first;
  }
  void RunFor(SimDuration span) { sim_.RunFor(span); }
  bool Step() { return sim_.Step(); }
  void Reshard(uint32_t shards) { sim_.SetShardCount(shards); }
  size_t pending() const { return sim_.pending_events(); }
  const Simulator& sim() const { return sim_; }

 private:
  Simulator sim_;
  uint64_t next_tag_ = 0;
};

// What a workload observed: every executed (when, tag) and pending() after
// every run slice. Both queues hand out tags 0, 1, 2, ... in scheduling
// order, so an executed tag stands for the event's seq.
struct QueueTrace {
  std::vector<std::pair<SimTime, uint64_t>> executed;
  std::vector<size_t> pending;
  std::vector<bool> stepped;  // Step() results.
};

// Short self-rescheduling events that arm long (1-5 ms) timers, the shape of
// RDMA ACK deadlines, so the heaps and tiers hold a deep backlog of
// long-dated entries while short events churn past them.
template <typename Queue>
QueueTrace RunTimerWorkload(Queue& q, uint64_t seed) {
  QueueTrace trace;
  Rng rng(seed);
  uint64_t next_tag = 0;
  auto arm = [&](SimDuration delay, std::function<void()> body) {
    const uint64_t tag = next_tag++;
    EXPECT_EQ(q.Arm(delay,
                    [&trace, &q, tag, body = std::move(body)] {
                      trace.executed.emplace_back(q.now(), tag);
                      body();
                    }),
              tag);
    return tag;
  };
  std::function<void(int)> chain = [&](int hops_left) {
    const uint64_t arms = rng.NextU64() % 3;
    for (uint64_t i = 0; i < arms; ++i) {
      const auto jitter = static_cast<SimDuration>(rng.NextU64() % (4 * kMillisecond));
      arm(1 * kMillisecond + jitter, [] {});
    }
    if (hops_left > 0) {
      arm(static_cast<SimDuration>(rng.NextU64() % 2000),
          [&chain, hops_left] { chain(hops_left - 1); });
    }
  };
  for (int c = 0; c < 12; ++c) {
    arm(c, [&chain] { chain(4000); });
  }
  for (int slice = 0; slice < 400; ++slice) {
    q.RunFor(static_cast<SimDuration>(rng.NextU64() % 40000));
    trace.pending.push_back(q.pending());
  }
  q.RunFor(10 * kMillisecond);
  trace.pending.push_back(q.pending());
  return trace;
}

// Far-future traffic for the event queue's tier (entries past a shard's
// frontier wait unsorted in slab buckets or the overflow): open-loop style
// ticks batch-admit arrivals 0-20 ms ahead, past the ~16.8 ms ring into the
// overflow, with same-instant ties; short chains arm 5 ms timers like RDMA
// ACK deadlines. Slices alternate
// Step() runs with RunFor deadlines that mostly land inside a slab, and
// `reshard_to` shards replace the queue's layout mid-run while the tier is
// full, and are replaced again later.
template <typename Queue>
QueueTrace RunTierWorkload(Queue& q, uint64_t seed, uint32_t shards, uint32_t reshard_to) {
  QueueTrace trace;
  Rng rng(seed);
  uint64_t next_tag = 0;
  auto record = [&trace, &q](uint64_t tag, std::function<void()> body) {
    return [&trace, &q, tag, body = std::move(body)] {
      trace.executed.emplace_back(q.now(), tag);
      body();
    };
  };
  auto arm = [&](SimDuration delay, std::function<void()> body) {
    const uint64_t tag = next_tag++;
    EXPECT_EQ(q.Arm(delay, record(tag, std::move(body))), tag);
    return tag;
  };
  std::function<void(int)> chain = [&](int hops_left) {
    if (rng.NextU64() % 2 == 0) {
      arm(5 * kMillisecond, [] {});
    }
    if (hops_left > 0) {
      arm(static_cast<SimDuration>(rng.NextU64() % 30000),
          [&chain, hops_left] { chain(hops_left - 1); });
    }
  };
  std::function<void(int)> tick = [&](int ticks_left) {
    std::vector<SimDuration> delays(rng.NextU64() % 96);
    for (size_t i = 0; i < delays.size(); ++i) {
      delays[i] = (i > 0 && rng.NextU64() % 8 == 0)
                      ? delays[i - 1]  // A same-instant tie inside the batch.
                      : static_cast<SimDuration>(rng.NextU64() % (20 * kMillisecond));
    }
    const uint64_t first = next_tag;
    next_tag += delays.size();
    EXPECT_EQ(q.ArmBatch(delays,
                         [&record, first](size_t i) -> std::function<void()> {
                           return record(first + i, [] {});
                         }),
              first);
    if (ticks_left > 0) {
      arm(10 * kMillisecond, [&tick, ticks_left] { tick(ticks_left - 1); });
    }
  };
  for (int c = 0; c < 8; ++c) {
    arm(c, [&chain] { chain(3000); });
  }
  for (int t = 0; t < 3; ++t) {
    arm(t * 3 * kMillisecond, [&tick] { tick(10); });
  }
  for (int slice = 0; slice < 600; ++slice) {
    if (rng.NextU64() % 4 == 0) {
      const uint64_t steps = rng.NextU64() % 24;
      for (uint64_t i = 0; i < steps; ++i) {
        trace.stepped.push_back(q.Step());
      }
    } else {
      q.RunFor(static_cast<SimDuration>(rng.NextU64() % (300 * kMicrosecond)));
    }
    if (slice == 200) {
      q.Reshard(reshard_to);
    } else if (slice == 400) {
      q.Reshard(shards);
    }
    trace.pending.push_back(q.pending());
  }
  q.RunFor(200 * kMillisecond);
  trace.pending.push_back(q.pending());
  return trace;
}

TEST(SimulatorTierTest, FarFutureTierMatchesSetReference) {
  for (const uint64_t seed : {3ull, 0xbeefull}) {
    const struct {
      uint32_t shards;
      uint32_t reshard_to;
    } configs[] = {{1, 4}, {16, 1}};
    for (const auto& config : configs) {
      ReferenceQueue reference;
      const QueueTrace expected =
          RunTierWorkload(reference, seed, config.shards, config.reshard_to);
      ASSERT_GT(expected.executed.size(), 20000u);
      ASSERT_GT(expected.stepped.size(), 1000u);
      EXPECT_EQ(expected.pending.back(), 0u);
      SimulatorQueue q(config.shards);
      const QueueTrace actual = RunTierWorkload(q, seed, config.shards, config.reshard_to);
      const std::string where =
          "seed=" + std::to_string(seed) + " shards=" + std::to_string(config.shards);
      EXPECT_EQ(actual.executed, expected.executed) << where;
      EXPECT_EQ(actual.pending, expected.pending) << where;
      EXPECT_EQ(actual.stepped, expected.stepped) << where;
      EXPECT_EQ(q.sim().heap_entries(), 0u) << where;
    }
  }
}

// A shard whose heap is empty shows the merge a bound on its tier (its
// earliest slab's start). A parallel run moves tier entries into the heaps,
// so it must replace such a bound with the real head: here shard 0's bound
// (983,040 ns, the start of B's slab) lies before D while B itself lies
// after it, and a stale bound would run B first.
TEST(SimulatorTierTest, ParallelRunReplacesTierBoundsWithRealHeads) {
  Simulator sim;
  sim.SetShardCount(2);
  std::vector<char> order;
  sim.ScheduleAtOn(0, 10 * kMicrosecond, [&order] { order.push_back('A'); });
  sim.ScheduleAtOn(0, 1000000, [&order] { order.push_back('B'); });
  sim.ScheduleAtOn(1, 900000, [&order] { order.push_back('C'); });
  sim.ScheduleAtOn(1, 990000, [&order] { order.push_back('D'); });
  // A runs; C, the earliest entry, is past the deadline, so B stays in shard
  // 0's tier behind the bound.
  sim.RunUntil(20 * kMicrosecond);
  sim.SetWorkerCount(2);
  sim.SetLookahead(10 * kMicrosecond);
  sim.RunUntil(100 * kMicrosecond);  // Parallel, and nothing is due.
  sim.SetWorkerCount(1);
  sim.Run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'C', 'D', 'B'}));
}

TEST(SimulatorTierTest, TimersMatchSetReferenceOverShardCounts) {
  for (const uint64_t seed : {1ull, 0xfeedull}) {
    ReferenceQueue reference;
    const QueueTrace expected = RunTimerWorkload(reference, seed);
    ASSERT_GT(expected.executed.size(), 40000u);
    EXPECT_EQ(expected.pending.back(), 0u);
    for (const uint32_t shards : {1u, 16u}) {
      SimulatorQueue q(shards);
      const QueueTrace actual = RunTimerWorkload(q, seed);
      const std::string where = "seed=" + std::to_string(seed) + " shards=" + std::to_string(shards);
      EXPECT_EQ(actual.executed, expected.executed) << where;
      EXPECT_EQ(actual.pending, expected.pending) << where;
    }
  }
}

}  // namespace
}  // namespace nadino
