// ScheduleBatch property test (DESIGN.md §3h satellite): batch admission
// executes exactly like the same schedule issued as repeated ScheduleAtOn
// calls, across shard counts, with fresh batches interleaved with runs; and
// long same-shard timers under a parallel drain run as they do serially.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "src/sim/simulator.h"

namespace nadino {
namespace {

struct Executed {
  SimTime when;
  uint64_t tag;
  bool operator==(const Executed& other) const {
    return when == other.when && tag == other.tag;
  }
};

// One scripted scenario, either via ScheduleBatch (use_batch) or via the
// equivalent repeated ScheduleAtOn calls. The script: admit `waves` waves of
// `n` events on rotating shards, running part of each wave before admitting
// the next, then run to empty.
std::vector<Executed> RunScript(uint32_t shards, bool use_batch, uint64_t seed) {
  constexpr int kWaves = 6;
  constexpr int kPerWave = 40;
  Simulator sim;
  sim.SetShardCount(shards);
  std::mt19937_64 rng(seed);
  std::vector<Executed> trace;

  uint64_t next_tag = 0;
  for (int wave = 0; wave < kWaves; ++wave) {
    const uint32_t shard = static_cast<uint32_t>(wave) % shards;
    std::vector<SimTime> whens(kPerWave);
    std::uniform_int_distribution<SimTime> when_dist(1, 2000);
    for (SimTime& when : whens) {
      when = sim.now() + when_dist(rng);
    }
    const uint64_t base_tag = next_tag;
    next_tag += kPerWave;
    if (use_batch) {
      sim.ScheduleBatch(shard, whens, [&sim, &trace, base_tag](size_t i) {
        const uint64_t tag = base_tag + i;
        return [&sim, &trace, tag] { trace.push_back({sim.now(), tag}); };
      });
    } else {
      for (size_t i = 0; i < whens.size(); ++i) {
        const uint64_t tag = base_tag + i;
        sim.ScheduleAtOn(shard, whens[i],
                         [&sim, &trace, tag] { trace.push_back({sim.now(), tag}); });
      }
    }
    // Let part of the wave fire before the next admission, so each batch
    // lands beside a mix of pending and tier-resident events.
    sim.RunUntil(sim.now() + 800);
  }
  sim.Run();
  EXPECT_EQ(trace.size(), static_cast<size_t>(kWaves * kPerWave));
  return trace;
}

TEST(BatchShardTest, BatchRunsExactlyLikeRepeatedScheduleAt) {
  for (uint32_t shards : {1u, 3u, 8u, 16u, 64u}) {
    for (uint64_t seed : {7ull, 99ull, 0xC0FFEEull}) {
      const std::vector<Executed> batched = RunScript(shards, /*use_batch=*/true, seed);
      const std::vector<Executed> repeated = RunScript(shards, /*use_batch=*/false, seed);
      ASSERT_FALSE(batched.empty());
      EXPECT_EQ(batched, repeated) << "shards=" << shards << " seed=" << seed;
    }
  }
}

TEST(BatchShardTest, BatchSlotsRecycle) {
  Simulator sim;
  sim.SetShardCount(4);
  int fired = 0;
  std::vector<SimTime> whens;
  for (SimTime t = 100; t <= 1000; t += 100) {
    whens.push_back(t);
  }
  sim.ScheduleBatch(2, whens, [&fired](size_t) { return [&fired] { ++fired; }; });
  sim.Run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(sim.pending_events(), 0u);
  const uint64_t slots_before = sim.slab_slots();
  // A fresh batch reuses the freed slots rather than growing the slab.
  sim.ScheduleBatch(2, whens, [&fired](size_t) { return [&fired] { ++fired; }; });
  sim.Run();
  EXPECT_EQ(sim.slab_slots(), slots_before);
  EXPECT_EQ(fired, 20);
}

// Each shard runs a chain that arms a long same-shard timer every hop, the
// shape of an RNIC's ACK deadlines, so W=2 must reproduce W=1 bit for bit:
// the per-shard executed sequences and the counts.
struct ParallelTimerResult {
  std::vector<std::vector<Executed>> per_shard;
  uint64_t events = 0;
  size_t pending_after_parallel = 0;
};

ParallelTimerResult RunParallelTimers(uint32_t workers) {
  constexpr uint32_t kShards = 4;
  constexpr int kHops = 3000;
  constexpr SimDuration kTimer = 50 * kMicrosecond;
  Simulator sim;
  sim.SetShardCount(kShards);
  sim.SetWorkerCount(workers);
  sim.SetLookahead(1 * kMicrosecond);
  ParallelTimerResult result;
  result.per_shard.resize(kShards);
  // Shard-confined state: a shard's events touch only its own entries.
  std::vector<uint64_t> next_tag(kShards, 0);

  struct Chain {
    Simulator* sim;
    ParallelTimerResult* result;
    std::vector<uint64_t>* next_tag;
    uint32_t shard;

    void Hop(int hop) const {
      std::vector<Executed>& trace = result->per_shard[shard];
      trace.push_back({sim->now(), (*next_tag)[shard]++});
      std::vector<Executed>* timer_trace = &trace;
      const Simulator* clock = sim;
      sim->Schedule(kTimer, [timer_trace, clock, hop] {
        timer_trace->push_back({clock->now(), 1'000'000u + static_cast<uint64_t>(hop)});
      });
      if (hop + 1 < kHops) {
        const Chain self = *this;
        sim->Schedule(100 + shard, [self, hop] { self.Hop(hop + 1); });
      }
    }
  };
  for (uint32_t s = 0; s < kShards; ++s) {
    const Chain chain{&sim, &result, &next_tag, s};
    sim.ScheduleAtOn(s, 10 + s, [chain] { chain.Hop(0); });
  }
  sim.RunUntil(200 * kMicrosecond);
  result.pending_after_parallel = sim.pending_events();
  // Serial tail: drain the rest of the chains and their timers.
  sim.SetWorkerCount(1);
  sim.Run();
  result.events = sim.events_processed();
  EXPECT_EQ(sim.pending_events(), 0u);
  return result;
}

TEST(BatchShardTest, WorkerContextTimersMatchSerialBitForBit) {
  const ParallelTimerResult serial = RunParallelTimers(1);
  const ParallelTimerResult parallel = RunParallelTimers(2);
  for (uint32_t s = 0; s < serial.per_shard.size(); ++s) {
    ASSERT_EQ(serial.per_shard[s].size(), 6000u) << "shard=" << s;
    EXPECT_EQ(parallel.per_shard[s], serial.per_shard[s]) << "shard=" << s;
  }
  EXPECT_GT(serial.pending_after_parallel, 0u);
  EXPECT_EQ(parallel.pending_after_parallel, serial.pending_after_parallel);
  EXPECT_EQ(parallel.events, serial.events);
}

}  // namespace
}  // namespace nadino
