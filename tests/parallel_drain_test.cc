// Engine-level semantics of the parallel shard drain (DESIGN.md §3h):
// conservative windows, mailbox delivery, determinism across repeats and
// across worker counts, Stop()/RunUntil behaviour, and the EventCallback
// heap-spill counter.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "src/sim/simulator.h"

namespace nadino {
namespace {

constexpr SimDuration kHop = 5000;  // Every cross-shard hop >= the lookahead.

// Per-shard accumulator a shard-confined workload folds its trace into.
// XOR/sum commute, so the aggregate is insensitive to the intra-window
// execution interleave while still pinning (when, chain) of every event.
struct alignas(64) ShardTrace {
  uint64_t count = 0;
  uint64_t mix = 0;
};

uint64_t MixEvent(uint64_t chain, SimTime when) {
  uint64_t h = chain * 0x9e3779b97f4a7c15ull ^ static_cast<uint64_t>(when);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 29;
  return h;
}

struct RingResult {
  uint64_t events = 0;
  uint64_t mix = 0;
  uint64_t windows = 0;
  uint64_t mail = 0;
  SimTime end_now = 0;
};

// `chains` request chains hop around `shards` shards until `deadline`; each
// hop records into its current shard's trace then reschedules one shard
// ahead. Shard-confined by construction: a hop only touches trace[shard].
RingResult RunRing(uint32_t shards, uint32_t workers, uint32_t chains, SimTime deadline) {
  Simulator sim;
  sim.SetShardCount(shards);
  sim.SetWorkerCount(workers);
  sim.SetLookahead(kHop);
  std::vector<ShardTrace> trace(shards);

  struct Hopper {
    Simulator* sim;
    std::vector<ShardTrace>* trace;
    uint32_t shards;
    uint64_t chain;

    void Hop(uint32_t shard) const {
      ShardTrace& t = (*trace)[shard];
      ++t.count;
      t.mix ^= MixEvent(chain, sim->now());
      const uint32_t next = (shard + 1) % shards;
      const Hopper self = *this;
      sim->ScheduleAtOn(next, sim->now() + kHop + chain, [self, next] { self.Hop(next); });
    }
  };

  for (uint64_t c = 0; c < chains; ++c) {
    const uint32_t shard = static_cast<uint32_t>(c) % shards;
    const Hopper hopper{&sim, &trace, shards, c};
    sim.ScheduleAtOn(shard, 1000 + c, [hopper, shard] { hopper.Hop(shard); });
  }
  sim.RunUntil(deadline);

  RingResult result;
  result.events = sim.events_processed();
  result.windows = sim.parallel_windows();
  result.mail = sim.parallel_mail_delivered();
  result.end_now = sim.now();
  for (const ShardTrace& t : trace) {
    result.mix ^= t.mix;
    result.events += 0;  // count folded below
  }
  uint64_t count = 0;
  for (const ShardTrace& t : trace) {
    count += t.count;
  }
  EXPECT_EQ(count, result.events);
  return result;
}

TEST(ParallelDrainTest, SerialRunNeverOpensWindows) {
  const RingResult serial = RunRing(/*shards=*/8, /*workers=*/1, /*chains=*/16,
                                    /*deadline=*/1 * kMillisecond);
  EXPECT_EQ(serial.windows, 0u);
  EXPECT_EQ(serial.mail, 0u);
  EXPECT_GT(serial.events, 0u);
}

TEST(ParallelDrainTest, ParallelMatchesSerialAggregates) {
  const RingResult serial = RunRing(8, 1, 16, 1 * kMillisecond);
  for (uint32_t workers : {2u, 4u}) {
    const RingResult par = RunRing(8, workers, 16, 1 * kMillisecond);
    EXPECT_EQ(par.events, serial.events) << "workers=" << workers;
    EXPECT_EQ(par.mix, serial.mix) << "workers=" << workers;
    EXPECT_GT(par.windows, 0u);
    EXPECT_GT(par.mail, 0u);  // Every hop is cross-shard.
  }
}

TEST(ParallelDrainTest, DeterministicAcrossRepeatsAndWorkerCounts) {
  const RingResult two_a = RunRing(6, 2, 12, 600 * kMicrosecond);
  const RingResult two_b = RunRing(6, 2, 12, 600 * kMicrosecond);
  EXPECT_EQ(two_a.events, two_b.events);
  EXPECT_EQ(two_a.mix, two_b.mix);
  EXPECT_EQ(two_a.windows, two_b.windows);
  // Worker count changes the thread carving, not the schedule.
  const RingResult three = RunRing(6, 3, 12, 600 * kMicrosecond);
  EXPECT_EQ(three.events, two_a.events);
  EXPECT_EQ(three.mix, two_a.mix);
}

TEST(ParallelDrainTest, WorkersClampToShardCount) {
  // 2 shards, 8 requested workers: only 2 can own shards; the run must not
  // deadlock waiting on idle workers.
  const RingResult serial = RunRing(2, 1, 4, 400 * kMicrosecond);
  const RingResult par = RunRing(2, 8, 4, 400 * kMicrosecond);
  EXPECT_EQ(par.events, serial.events);
  EXPECT_EQ(par.mix, serial.mix);
}

TEST(ParallelDrainTest, RunUntilLeavesLaterEventsPendingAndResumable) {
  Simulator sim;
  sim.SetShardCount(4);
  sim.SetWorkerCount(2);
  sim.SetLookahead(kHop);
  std::vector<ShardTrace> trace(4);
  int late_runs = 0;
  for (uint32_t s = 0; s < 4; ++s) {
    sim.ScheduleAtOn(s, 100 + s, [&trace, s] { ++trace[s].count; });
    sim.ScheduleAtOn(s, 1 * kMillisecond + s, [&late_runs] { ++late_runs; });
  }
  sim.RunUntil(500 * kMicrosecond);
  EXPECT_EQ(sim.now(), 500 * kMicrosecond);
  EXPECT_EQ(late_runs, 0);
  EXPECT_EQ(sim.pending_events(), 4u);
  // The tail drains in a later (serial) run: leftover parallel-arena slots
  // must still be reachable.
  sim.SetWorkerCount(1);
  sim.Run();
  EXPECT_EQ(late_runs, 4);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(ParallelDrainTest, StopInsideParallelRunHaltsPromptly) {
  Simulator sim;
  sim.SetShardCount(4);
  sim.SetWorkerCount(2);
  sim.SetLookahead(kHop);
  std::atomic<uint64_t> ran{0};
  // Endless self-rescheduling chains; shard 0 pulls the plug mid-run.
  struct Endless {
    Simulator* sim;
    std::atomic<uint64_t>* ran;
    void Hop(uint32_t shard) const {
      ran->fetch_add(1, std::memory_order_relaxed);
      if (shard == 0 && ran->load(std::memory_order_relaxed) > 500) {
        sim->Stop();
        return;
      }
      const Endless self = *this;
      sim->ScheduleAtOn(shard, sim->now() + 10, [self, shard] { self.Hop(shard); });
    }
  };
  for (uint32_t s = 0; s < 4; ++s) {
    const Endless e{&sim, &ran};
    sim.ScheduleAtOn(s, 100, [e, s] { e.Hop(s); });
  }
  sim.Run();
  EXPECT_GT(ran.load(), 500u);
  // Stop is a pause, not a drain: the other chains' events are still queued.
  EXPECT_GT(sim.pending_events(), 0u);
}

TEST(ParallelDrainTest, HorizonClampsCountDeadlineBoundedWindows) {
  Simulator sim;
  sim.SetShardCount(2);
  sim.SetWorkerCount(2);
  sim.SetLookahead(1 * kMillisecond);  // Deeper than the run deadline.
  std::atomic<int> runs{0};
  sim.ScheduleAtOn(0, 10, [&runs] { ++runs; });
  sim.ScheduleAtOn(1, 20, [&runs] { ++runs; });
  sim.RunUntil(100);
  EXPECT_EQ(runs, 2);
  EXPECT_GT(sim.parallel_horizon_clamps(), 0u);
}

TEST(ParallelDrainTest, HeapSpillCounterPinsHotPathsAtZero) {
  Simulator sim;
  sim.SetShardCount(4);
  sim.SetWorkerCount(2);
  sim.SetLookahead(kHop);
  std::vector<ShardTrace> trace(4);
  for (uint32_t s = 0; s < 4; ++s) {
    sim.ScheduleAtOn(s, 100, [&sim, &trace, s] {
      ++trace[s].count;
      sim.ScheduleAtOn((s + 1) % 4, sim.now() + kHop, [&trace, s] { ++trace[s].count; });
    });
  }
  sim.Run();
  // Small captures stay inline on both the own-shard and mailbox paths.
  EXPECT_EQ(sim.callback_heap_spills(), 0u);

  // An oversized capture spills exactly once per schedule, on either path.
  std::array<unsigned char, 128> big{};
  sim.SetWorkerCount(1);
  sim.ScheduleAtOn(0, sim.now() + 1, [big] { (void)big; });
  EXPECT_EQ(sim.callback_heap_spills(), 1u);
  sim.SetWorkerCount(2);
  sim.ScheduleAtOn(0, sim.now() + 2, [&sim, big] {
    (void)big;  // Spill #2 (serial admission above).
    // Spill #3: cross-shard mailbox path inside the parallel drain.
    sim.ScheduleAtOn(1, sim.now() + kHop, [big] { (void)big; });
  });
  sim.Run();
  EXPECT_EQ(sim.callback_heap_spills(), 3u);
}

}  // namespace
}  // namespace nadino
