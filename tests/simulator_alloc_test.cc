// Zero-allocation property of the simulator hot path (DESIGN.md §3c): once
// the slab's working set is warm, scheduling + firing an event with a small
// capture must touch the global allocator zero times. This file overrides the
// global operator new/delete with counting shims, so it deliberately lives in
// its own test binary (the GLOB in tests/CMakeLists.txt makes every *_test.cc
// a separate executable).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace {

// Counting shims. gtest and the simulator warm-up allocate freely; the test
// brackets only the steady-state loop between Snapshot() calls.
std::uint64_t g_news = 0;
std::uint64_t g_deletes = 0;

std::uint64_t AllocOps() { return g_news + g_deletes; }

}  // namespace

void* operator new(std::size_t size) {
  ++g_news;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* p) noexcept {
  ++g_deletes;
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }

namespace nadino {
namespace {

TEST(SimulatorAllocTest, SteadyStateEventsAllocateNothing) {
  Simulator sim;
  // Warm-up: grow the slab, the heap vector, and the free list to the
  // working-set shape. All allocation is allowed here.
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 512; ++i) {
      sim.Schedule(i, []() {});
    }
    sim.Run();
  }
  const size_t warm_slots = sim.slab_slots();

  // Steady state: schedule/fire 100k small-capture events. The captures
  // below (a few pointers/ints) are far under EventCallback::kInlineBytes,
  // so they must be stored inline in recycled slots — zero operator-new
  // calls, zero slab growth.
  uint64_t fired = 0;
  const uint64_t ops_before = AllocOps();
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 500; ++i) {
      sim.Schedule(i % 97, [&fired, i]() { fired += static_cast<uint64_t>(i) & 1u; });
    }
    sim.Run();
  }
  const uint64_t ops_after = AllocOps();
  EXPECT_EQ(ops_after - ops_before, 0u)
      << "steady-state schedule/fire touched the global allocator";
  EXPECT_EQ(sim.slab_slots(), warm_slots);
  EXPECT_GT(fired, 0u);
}

TEST(SimulatorAllocTest, CancelChurnAllocatesNothing) {
  Simulator sim;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 512; ++i) {
      sim.Schedule(1000 + i, []() {});
    }
    sim.Run();
  }
  const uint64_t ops_before = AllocOps();
  for (int round = 0; round < 200; ++round) {
    EventId ids[256];
    for (int i = 0; i < 256; ++i) {
      ids[i] = sim.Schedule(1000 + i, []() {});
    }
    for (int i = 0; i < 256; ++i) {
      ASSERT_TRUE(sim.Cancel(ids[i]));
    }
    sim.Run();  // Drains the lazily-discarded cancelled entries.
  }
  EXPECT_EQ(AllocOps() - ops_before, 0u)
      << "steady-state schedule/cancel touched the global allocator";
}

// The far-future tier in steady state: open-loop style batches spread 0-20 ms
// ahead (past the ~16.8 ms ring, so the overflow is used too) and 5 ms
// timers cancelled by short events, the way ACKs cancel RDMA timeouts. The
// cancels outnumber the live backlog, so purges sweep the tier as well. Each
// round advances the clock by a span that is not a whole number of slabs,
// so the split between heap, ring and overflow shifts from round to round;
// tier storage must still come from warm pools.
TEST(SimulatorAllocTest, FarFutureBatchesAndCancelledTimersAllocateNothing) {
  Simulator sim;
  sim.SetShardCount(2);
  std::vector<SimTime> whens;
  whens.reserve(256);
  uint64_t fired = 0;
  uint64_t cancelled = 0;
  auto round = [&](uint64_t r) {
    for (uint32_t shard = 0; shard < 2; ++shard) {
      whens.clear();
      for (uint64_t i = 0; i < 200; ++i) {
        const uint64_t spread = (i * 7919 + r * 104729) % (20 * kMillisecond);
        whens.push_back(sim.now() + static_cast<SimDuration>(spread));
      }
      sim.ScheduleBatch(shard, whens, [&fired](size_t) { return [&fired]() { ++fired; }; });
    }
    for (int i = 0; i < 1024; ++i) {
      const EventId timer = sim.Schedule(5 * kMillisecond, []() {});
      sim.Schedule(100 + i, [&sim, &cancelled, timer]() {
        cancelled += sim.Cancel(timer) ? 1 : 0;
      });
    }
    sim.RunFor(10 * kMillisecond + 12345);
  };
  for (uint64_t r = 0; r < 40; ++r) {
    round(r);
  }
  const uint64_t ops_before = AllocOps();
  for (uint64_t r = 40; r < 240; ++r) {
    round(r);
  }
  EXPECT_EQ(AllocOps() - ops_before, 0u)
      << "steady-state far-future batches and timer cancels touched the global allocator";
  EXPECT_GT(fired, 200u * 400u);
  EXPECT_EQ(cancelled, 240u * 1024u);
}

// Captures beyond kInlineBytes must still work (one heap allocation each) —
// the fallback path the fast path is allowed to skip.
TEST(SimulatorAllocTest, OversizedCapturesFallBackToHeap) {
  Simulator sim;
  struct Big {
    unsigned char bytes[256];  // > EventCallback::kInlineBytes.
  };
  Big big{};
  big.bytes[0] = 42;
  int seen = 0;
  const uint64_t ops_before = AllocOps();
  sim.Schedule(1, [big, &seen]() { seen = big.bytes[0]; });
  sim.Run();
  EXPECT_EQ(seen, 42);
  EXPECT_GT(AllocOps(), ops_before);  // The fallback did allocate.
}

}  // namespace
}  // namespace nadino
