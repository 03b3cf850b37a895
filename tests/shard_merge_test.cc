// The shard merge (src/sim/simulator.cc) must be invisible: any shard count
// executes the exact sequence a single heap does. Randomized schedules with
// callback-driven cross-shard reschedules update arbitrary shard heads
// between pops.

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

// Drives one randomized run: `events` roots scattered over shards and time,
// half of them rescheduling a child on another (random) shard. The draws do not depend on `shards`, so every
// shard count schedules the same events in the same order.
std::vector<Executed> RunMerge(uint32_t shards, uint64_t seed, int events) {
  Simulator sim;
  sim.SetShardCount(shards);
  std::mt19937_64 rng(seed);
  std::vector<Executed> trace;

  std::uniform_int_distribution<SimTime> when_dist(1, 5000);
  for (int i = 0; i < events; ++i) {
    const SimTime when = when_dist(rng);
    const uint32_t shard = static_cast<uint32_t>(rng() % shards);
    const uint64_t tag = static_cast<uint64_t>(i);
    const bool respawn = (rng() & 1) != 0;
    const uint32_t child_shard = static_cast<uint32_t>(rng() % shards);
    const SimTime child_delay = when_dist(rng);
    sim.ScheduleAtOn(
        shard, when, [&sim, &trace, tag, respawn, child_shard, child_delay] {
          trace.push_back({sim.now(), tag});
          if (respawn) {
            const uint64_t child_tag = tag | (1ull << 32);
            sim.ScheduleAtOn(child_shard, sim.now() + child_delay,
                             [&sim, &trace, child_tag] { trace.push_back({sim.now(), child_tag}); });
          }
        });
  }
  sim.Run();
  return trace;
}

TEST(ShardMergeTest, EveryShardCountRunsTheSingleHeapSequence) {
  for (uint64_t seed : {1ull, 42ull, 0xFEEDull}) {
    const std::vector<Executed> single = RunMerge(1, seed, 400);
    ASSERT_GT(single.size(), 400u);
    for (uint32_t shards : {2u, 5u, 9u, 16u, 33u, 64u}) {
      EXPECT_EQ(RunMerge(shards, seed, 400), single) << "shards=" << shards << " seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace nadino
