// Slab/heap stress for the rewritten simulator core (DESIGN.md §3c): millions
// of schedule/cancel/fire operations from a seeded RNG, asserting the
// invariants the hot-path rewrite must preserve — the (when, seq) total
// order, pending_events() accuracy under churn, and generation-tagged id
// safety across slot reuse.

#include <gtest/gtest.h>

#include <algorithm>
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

// ~1.2M schedule ops + ~400k cancels + fires, interleaved with bursts of
// Run/RunFor so the free list and heap cycle through many shapes.
TEST(SimulatorStressTest, MillionOpChurnPreservesInvariants) {
  Simulator sim;
  Rng prng(0xdeadbeefULL);
  uint64_t scheduled = 0;
  uint64_t fired = 0;
  uint64_t cancelled = 0;
  uint64_t expected_fires = 0;
  SimTime last_fire_time = 0;
  uint64_t last_fire_seq = 0;
  uint64_t next_seq_tag = 1;
  bool order_ok = true;

  std::vector<EventId> open_ids;
  open_ids.reserve(4096);

  constexpr int kRounds = 300;
  constexpr int kBatch = 4000;  // 300 * 4000 = 1.2M scheduled events.
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kBatch; ++i) {
      const SimDuration delay = static_cast<SimDuration>(prng.NextU64() % 5000);
      const uint64_t tag = next_seq_tag++;
      const EventId id = sim.Schedule(delay, [&, tag]() {
        // Events must fire in non-decreasing time; at equal times, in
        // scheduling order (tag is monotonic in scheduling order, but
        // events scheduled later can legally fire earlier at earlier
        // times, so only compare tags within one timestamp).
        const SimTime now = sim.now();
        if (now < last_fire_time) {
          order_ok = false;
        } else if (now == last_fire_time && tag <= last_fire_seq) {
          order_ok = false;
        }
        last_fire_time = now;
        last_fire_seq = tag;
        ++fired;
      });
      EXPECT_NE(id, kInvalidEventId);
      open_ids.push_back(id);
      ++scheduled;
    }
    // Cancel a pseudo-random third of the still-open ids.
    uint64_t round_cancels = 0;
    std::vector<EventId> keep;
    keep.reserve(open_ids.size());
    for (const EventId id : open_ids) {
      if (prng.NextU64() % 3 == 0) {
        if (sim.Cancel(id)) {
          ++round_cancels;
        }
      } else {
        keep.push_back(id);
      }
    }
    cancelled += round_cancels;
    open_ids.swap(keep);
    // Fire roughly half the horizon; the rest carries into the next round.
    sim.RunFor(2500);
    open_ids.clear();  // Fired or stale by now — either way not re-cancelled.
  }
  sim.Run();
  expected_fires = scheduled - cancelled;
  EXPECT_TRUE(order_ok) << "events fired out of (when, seq) order";
  EXPECT_EQ(fired, expected_fires);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_GE(scheduled, 1'000'000u);
}

// pending_events() must track live (scheduled - fired - cancelled) exactly
// through arbitrary interleavings.
TEST(SimulatorStressTest, PendingCountStaysExact) {
  Simulator sim;
  Rng prng(42);
  uint64_t live = 0;
  std::vector<EventId> ids;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 500; ++i) {
      ids.push_back(sim.Schedule(static_cast<SimDuration>(prng.NextU64() % 1000),
                                 [&live]() { --live; }));
      ++live;
    }
    for (size_t i = 0; i < ids.size(); i += 4) {
      if (sim.Cancel(ids[i])) {
        --live;
      }
    }
    ids.clear();
    EXPECT_EQ(sim.pending_events(), live);
    sim.RunFor(500);
    EXPECT_EQ(sim.pending_events(), live);
  }
  sim.Run();
  EXPECT_EQ(live, 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Generation tags: an EventId kept past its event's death must never cancel
// the slot's next tenant, even after tens of thousands of reuse cycles.
TEST(SimulatorStressTest, StaleIdsNeverCancelReusedSlots) {
  Simulator sim;
  uint64_t fired = 0;
  std::vector<EventId> stale;
  // Phase 1: build up a pile of ids, then let them all fire (every slot is
  // recycled, every kept id is stale).
  for (int i = 0; i < 20000; ++i) {
    stale.push_back(sim.Schedule(1, [&fired]() { ++fired; }));
  }
  sim.Run();
  ASSERT_EQ(fired, 20000u);
  // Phase 2: refill the recycled slots with fresh events, then throw every
  // stale id at Cancel. All must bounce off the generation check.
  uint64_t second_fired = 0;
  for (int i = 0; i < 20000; ++i) {
    sim.Schedule(1, [&second_fired]() { ++second_fired; });
  }
  for (const EventId id : stale) {
    EXPECT_FALSE(sim.Cancel(id));
  }
  EXPECT_EQ(sim.pending_events(), 20000u);
  sim.Run();
  EXPECT_EQ(second_fired, 20000u);
}

// Cancelling an id twice, cancelling after the fire, and cancelling inside
// the firing callback all return false without disturbing other events.
TEST(SimulatorStressTest, CancelEdgeCases) {
  Simulator sim;
  int fired = 0;
  const EventId a = sim.Schedule(10, [&fired]() { ++fired; });
  EXPECT_TRUE(sim.Cancel(a));
  EXPECT_FALSE(sim.Cancel(a));  // Double-cancel.

  EventId self = kInvalidEventId;
  self = sim.Schedule(20, [&]() {
    ++fired;
    EXPECT_FALSE(sim.Cancel(self));  // Cancelling the firing event itself.
  });
  const EventId b = sim.Schedule(30, [&fired]() { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.Cancel(b));  // Cancel after fire.
  EXPECT_FALSE(sim.Cancel(kInvalidEventId));
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

// --- Cancelled-entry purge --------------------------------------------------
//
// Once cancelled heap entries outnumber live events, Cancel() purges them
// from every shard. The tests below pin that a purge never changes which
// events run or in what (when, seq) order, keeps pending_events() exact, and
// bounds the slab by the live working set instead of the cancelled backlog.

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
  bool Disarm(uint64_t tag) {
    const auto it = callbacks_.find(tag);
    if (it == callbacks_.end()) {
      return false;
    }
    callbacks_.erase(it);
    return true;
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
    while (!order_.empty()) {
      if (RunNext()) {
        return true;
      }
    }
    return false;
  }
  void Reshard(uint32_t) {}
  size_t pending() const { return callbacks_.size(); }

 private:
  // Pops the earliest entry and runs it unless it was cancelled.
  bool RunNext() {
    const auto [when, tag] = *order_.begin();
    order_.erase(order_.begin());
    const auto it = callbacks_.find(tag);
    if (it == callbacks_.end()) {
      return false;  // Cancelled.
    }
    std::function<void()> fn = std::move(it->second);
    callbacks_.erase(it);
    now_ = when;
    fn();
    return true;
  }

  SimTime now_ = 0;
  uint64_t next_tag_ = 0;
  std::set<std::pair<SimTime, uint64_t>> order_;
  std::map<uint64_t, std::function<void()>> callbacks_;
};

// The simulator behind the same interface; events are spread over the
// shards round-robin so purges hit every heap.
class SimulatorQueue {
 public:
  explicit SimulatorQueue(uint32_t shards) { sim_.SetShardCount(shards); }
  SimTime now() const { return sim_.now(); }
  uint64_t Arm(SimDuration delay, std::function<void()> fn) {
    const uint64_t tag = ids_.size();
    ids_.push_back(sim_.ScheduleOn(static_cast<uint32_t>(tag), delay, std::move(fn)));
    return tag;
  }
  // One batch onto the shard of its first tag; ScheduleBatch appends the
  // entries' ids in index order, so tags stay indices into ids_.
  uint64_t ArmBatch(const std::vector<SimDuration>& delays,
                    const std::function<std::function<void()>(size_t)>& make) {
    const uint64_t first = ids_.size();
    std::vector<SimTime> whens;
    for (const SimDuration delay : delays) {
      whens.push_back(sim_.now() + delay);
    }
    sim_.ScheduleBatch(static_cast<uint32_t>(first), whens, make, &ids_);
    return first;
  }
  bool Disarm(uint64_t tag) { return sim_.Cancel(ids_[tag]); }
  void RunFor(SimDuration span) { sim_.RunFor(span); }
  bool Step() { return sim_.Step(); }
  void Reshard(uint32_t shards) { sim_.SetShardCount(shards); }
  size_t pending() const { return sim_.pending_events(); }
  const Simulator& sim() const { return sim_; }

 private:
  Simulator sim_;
  std::vector<EventId> ids_;
};

// What a workload observed: every executed (when, tag), every Disarm
// outcome, and pending() after every RunFor slice. Both queues hand out
// tags 0, 1, 2, ... in scheduling order, so an executed tag stands for the
// event's seq.
struct PurgeTrace {
  std::vector<std::pair<SimTime, uint64_t>> executed;
  std::vector<bool> disarmed;
  std::vector<size_t> pending;
  std::vector<bool> stepped;  // Step() results.
};

// Short self-rescheduling events that arm long (1-5 ms) timers and cancel
// most of them shortly after, the way ACKs cancel RDMA timeouts. Cancels run
// both inside callbacks (purging mid-callback) and between run slices.
template <typename Queue>
PurgeTrace RunPurgeWorkload(Queue& q, uint64_t seed) {
  PurgeTrace trace;
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
  std::vector<uint64_t> timers;
  auto cancel_some = [&](uint64_t max_cancels) {
    const uint64_t cancels = rng.NextU64() % (max_cancels + 1);
    for (uint64_t i = 0; i < cancels && !timers.empty(); ++i) {
      const size_t pick = rng.NextU64() % timers.size();
      trace.disarmed.push_back(q.Disarm(timers[pick]));
      timers[pick] = timers.back();
      timers.pop_back();
    }
  };
  std::function<void(int)> chain = [&](int hops_left) {
    const uint64_t arms = rng.NextU64() % 3;
    for (uint64_t i = 0; i < arms; ++i) {
      const auto jitter = static_cast<SimDuration>(rng.NextU64() % (4 * kMillisecond));
      timers.push_back(arm(1 * kMillisecond + jitter, [] {}));
    }
    cancel_some(3);
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
    cancel_some(6);
    trace.pending.push_back(q.pending());
  }
  q.RunFor(10 * kMillisecond);
  trace.pending.push_back(q.pending());
  return trace;
}

// Far-future traffic for the event queue's tier (entries past a shard's
// frontier wait unsorted in slab buckets or the overflow): open-loop style
// ticks batch-admit arrivals 0-20 ms ahead, past the ~16.8 ms ring into the
// overflow, with same-instant ties and some arrivals cancelled later; short
// chains arm 5 ms timers and cancel them like ACKs. Slices alternate
// Step() runs with RunFor deadlines that mostly land inside a slab, and
// `reshard_to` shards replace the queue's layout mid-run while the tier is
// full, and are replaced again later.
template <typename Queue>
PurgeTrace RunTierWorkload(Queue& q, uint64_t seed, uint32_t shards, uint32_t reshard_to) {
  PurgeTrace trace;
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
  std::vector<uint64_t> timers;
  auto cancel_some = [&](uint64_t max_cancels) {
    const uint64_t cancels = rng.NextU64() % (max_cancels + 1);
    for (uint64_t i = 0; i < cancels && !timers.empty(); ++i) {
      const size_t pick = rng.NextU64() % timers.size();
      trace.disarmed.push_back(q.Disarm(timers[pick]));
      timers[pick] = timers.back();
      timers.pop_back();
    }
  };
  std::function<void(int)> chain = [&](int hops_left) {
    if (rng.NextU64() % 2 == 0) {
      timers.push_back(arm(5 * kMillisecond, [] {}));
    }
    cancel_some(2);
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
    for (uint64_t tag = first; tag < next_tag; ++tag) {
      if (rng.NextU64() % 4 == 0) {
        timers.push_back(tag);
      }
    }
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
    cancel_some(4);
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

TEST(SimulatorPurgeTest, FarFutureTierMatchesSetReference) {
  for (const uint64_t seed : {3ull, 0xbeefull}) {
    const struct {
      uint32_t shards;
      uint32_t reshard_to;
    } configs[] = {{1, 4}, {16, 1}};
    for (const auto& config : configs) {
      ReferenceQueue reference;
      const PurgeTrace expected =
          RunTierWorkload(reference, seed, config.shards, config.reshard_to);
      ASSERT_GT(expected.executed.size(), 20000u);
      ASSERT_GT(expected.stepped.size(), 1000u);
      EXPECT_EQ(expected.pending.back(), 0u);
      SimulatorQueue q(config.shards);
      const PurgeTrace actual = RunTierWorkload(q, seed, config.shards, config.reshard_to);
      const std::string where =
          "seed=" + std::to_string(seed) + " shards=" + std::to_string(config.shards);
      EXPECT_EQ(actual.executed, expected.executed) << where;
      EXPECT_EQ(actual.disarmed, expected.disarmed) << where;
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

TEST(SimulatorPurgeTest, PurgeMatchesSetReferenceOverShardCounts) {
  for (const uint64_t seed : {1ull, 0xfeedull}) {
    ReferenceQueue reference;
    const PurgeTrace expected = RunPurgeWorkload(reference, seed);
    ASSERT_GT(expected.executed.size(), 40000u);
    size_t cancelled = 0;
    for (const bool ok : expected.disarmed) {
      cancelled += ok ? 1 : 0;
    }
    ASSERT_GT(cancelled, expected.disarmed.size() / 2);  // Most timers die early.
    EXPECT_EQ(expected.pending.back(), 0u);
    for (const uint32_t shards : {1u, 16u}) {
      SimulatorQueue q(shards);
      const PurgeTrace actual = RunPurgeWorkload(q, seed);
      const std::string where = "seed=" + std::to_string(seed) + " shards=" + std::to_string(shards);
      EXPECT_EQ(actual.executed, expected.executed) << where;
      EXPECT_EQ(actual.disarmed, expected.disarmed) << where;
      EXPECT_EQ(actual.pending, expected.pending) << where;
      // The purge keeps the slab near the live working set (a few dozen
      // chains and timers), not the thousands of cancelled timers.
      EXPECT_LT(q.sim().slab_slots(), 200u) << where;
    }
  }
}

// 100K arm/cancel cycles of a 5 ms timer beside short events: without the
// purge the slab grows with every cancelled timer still short of its
// deadline; with it, the slab stays within 2x the live peak plus a constant.
TEST(SimulatorPurgeTest, SlabBoundedByLivePeakAcrossArmCancelCycles) {
  Simulator sim;
  constexpr int kChains = 8;
  constexpr uint64_t kCycles = 100'000;
  uint64_t cycles = 0;
  size_t live_peak = 0;
  std::vector<EventId> armed(kChains, kInvalidEventId);
  std::function<void(int)> hop = [&](int chain) {
    // Cancel the timer this chain armed last hop (its "ACK"), arm a new one.
    if (armed[static_cast<size_t>(chain)] != kInvalidEventId) {
      EXPECT_TRUE(sim.Cancel(armed[static_cast<size_t>(chain)]));
    }
    armed[static_cast<size_t>(chain)] = sim.Schedule(5 * kMillisecond, [] { FAIL(); });
    live_peak = std::max(live_peak, sim.pending_events() + 1);  // + the running hop.
    if (++cycles < kCycles) {
      sim.Schedule(100 + chain, [&hop, chain] { hop(chain); });
    }
  };
  for (int c = 0; c < kChains; ++c) {
    sim.Schedule(c, [&hop, c] { hop(c); });
  }
  sim.RunFor(3 * kMillisecond);  // The chains stop before the last timers expire.
  EXPECT_GE(cycles, kCycles);
  EXPECT_LE(sim.slab_slots(), 2 * live_peak + 8);
  for (const EventId id : armed) {
    EXPECT_TRUE(sim.Cancel(id));
  }
  EXPECT_EQ(sim.pending_events(), 0u);
}

// A purged entry's slot is freed and re-tenanted: its old id must bounce,
// while an id that survived the purge is still cancellable.
TEST(SimulatorPurgeTest, PurgedIdsBounceAndSurvivorsStayCancellable) {
  Simulator sim;
  int fired = 0;
  const EventId survivor = sim.Schedule(5 * kMillisecond, [&fired] { ++fired; });
  std::vector<EventId> doomed;
  for (int i = 0; i < 3; ++i) {
    doomed.push_back(sim.Schedule(5 * kMillisecond + i, [&fired] { ++fired; }));
  }
  for (const EventId id : doomed) {
    EXPECT_TRUE(sim.Cancel(id));  // The third cancel outnumbers the live event: purge.
  }
  const size_t slots = sim.slab_slots();
  std::vector<EventId> fresh;
  for (int i = 0; i < 3; ++i) {
    fresh.push_back(sim.Schedule(1, [&fired] { ++fired; }));
  }
  EXPECT_EQ(sim.slab_slots(), slots);  // The fresh events reuse the purged slots.
  for (const EventId id : doomed) {
    EXPECT_FALSE(sim.Cancel(id));
  }
  EXPECT_EQ(sim.pending_events(), 4u);
  EXPECT_TRUE(sim.Cancel(survivor));
  sim.Run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.pending_events(), 0u);
}

}  // namespace
}  // namespace nadino
