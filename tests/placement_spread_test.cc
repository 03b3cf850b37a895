// RoutingTable replica rotation (DESIGN.md §3e):
//   * round-robin — replicas serve in rotation, within one pick of each other;
//   * Peek/Pick agreement — PeekFor previews exactly what ResolveFor commits,
//     also across a replica-set change;
//   * determinism — equal seeds reproduce the pick sequence, and the first
//     pick of a (seed, function) pair is pinned.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/runtime/routing_table.h"

namespace nadino {
namespace {

constexpr FunctionId kFn = 7;

// Two replicas alternate, so counts differ by at most one — far inside the
// 1.5x acceptance bound.
TEST(ReplicaRotationTest, TwoReplicasStayWithinOnePick) {
  RoutingTable routing(42);
  routing.Place(kFn, 1);
  routing.Place(kFn, 2);
  for (int i = 0; i < 1001; ++i) {
    routing.ResolveFor(kFn);
  }
  const uint64_t a = routing.ResolvedCount(kFn, 1);
  const uint64_t b = routing.ResolvedCount(kFn, 2);
  EXPECT_EQ(a + b, 1001u);
  EXPECT_LE(a > b ? a - b : b - a, 1u);
}

// Every window of `replicas` consecutive picks serves each replica once.
TEST(ReplicaRotationTest, EveryRotationServesEachReplicaOnce) {
  RoutingTable routing(0xBEEFu);
  for (NodeId node = 1; node <= 4; ++node) {
    routing.Place(kFn, node);
  }
  for (int round = 0; round < 50; ++round) {
    std::set<NodeId> served;
    for (int i = 0; i < 4; ++i) {
      served.insert(routing.ResolveFor(kFn));
    }
    EXPECT_EQ(served.size(), 4u) << "round " << round;
  }
  for (NodeId node = 1; node <= 4; ++node) {
    EXPECT_EQ(routing.ResolvedCount(kFn, node), 50u) << "node " << node;
  }
}

// The preview contract: PeekFor must name exactly the replica the next
// ResolveFor commits, at every step of the rotation.
TEST(ReplicaRotationTest, PeekMatchesNextPick) {
  RoutingTable routing(0xFEEDu);
  for (NodeId node = 1; node <= 3; ++node) {
    routing.Place(kFn, node);
  }
  for (int i = 0; i < 200; ++i) {
    const NodeId preview = routing.PeekFor(kFn);
    EXPECT_EQ(routing.ResolveFor(kFn), preview) << "step " << i;
  }
}

// The same contract while the replica set grows: the first pick after a
// change carries the rotor over, and Peek previews that carried rotor.
TEST(ReplicaRotationTest, PeekMatchesNextPickAsReplicaSetGrows) {
  for (const uint64_t seed : {3ull, 0x51ull, 0xC0FFEEull}) {
    RoutingTable routing(seed);
    for (NodeId node = 1; node <= 2; ++node) {
      routing.Place(kFn, node);
    }
    for (int i = 0; i < 100; ++i) {
      if (i == 31 || i == 64) {
        routing.Place(kFn, i == 31 ? 3 : 4);
      }
      const NodeId preview = routing.PeekFor(kFn);
      EXPECT_EQ(routing.ResolveFor(kFn), preview) << "step " << i << " under seed " << seed;
    }
    for (NodeId node = 1; node <= 4; ++node) {
      EXPECT_GT(routing.ResolvedCount(kFn, node), 0u) << "node " << node;
    }
  }
}

// Equal seeds must reproduce the pick sequence bit-for-bit; different seeds
// are free to start the rotor elsewhere.
TEST(ReplicaRotationTest, EqualSeedsReproducePickSequence) {
  for (const uint64_t seed : {1ull, 99ull, 0xA5A5ull}) {
    RoutingTable routing_a(seed), routing_b(seed);
    for (NodeId node = 1; node <= 4; ++node) {
      routing_a.Place(kFn, node);
      routing_b.Place(kFn, node);
    }
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(routing_a.ResolveFor(kFn), routing_b.ResolveFor(kFn))
          << "diverged at step " << i << " under seed " << seed;
    }
  }
}

// A table with two placements rotates as built: no install call. The first
// pick of each (seed, function) pair is pinned, so a change to where
// rotation starts (and with it every multi-replica run) shows here.
TEST(ReplicaRotationTest, TwoPlacementsRotateFromAPinnedStart) {
  const struct {
    uint64_t seed;
    FunctionId function;
    NodeId first;
  } cases[] = {
      // Where rotation starts decides the replica each request of every
      // multi-replica run hits (the node-scale golden), so these must not move.
      {1, 1001, 2},     {42, 7, 2},       {42, 8, 1},
      {0xBEEF, 1000, 2}, {0xBEEF, 1001, 1}, {0x9E3779B97F4A7C15ull, 1000, 1},
      {0x9E3779B97F4A7C15ull, 1001, 2},
  };
  for (const auto& c : cases) {
    RoutingTable routing(c.seed);
    routing.Place(c.function, 1);
    routing.Place(c.function, 2);
    EXPECT_EQ(routing.ResolveFor(c.function), c.first)
        << "seed " << c.seed << " function " << c.function;
    EXPECT_EQ(routing.ResolveFor(c.function), c.first == 1 ? 2u : 1u);
    EXPECT_EQ(routing.ResolveFor(c.function), c.first);
  }
}

// A single placement always resolves to it and leaves the rotor unset, so a
// replica placed later starts the rotation at the seeded draw.
TEST(ReplicaRotationTest, SinglePlacementResolvesToIt) {
  RoutingTable routing(7);
  routing.Place(kFn, 1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(routing.ResolveFor(kFn), 1u);
    EXPECT_EQ(routing.PeekFor(kFn), 1u);
  }
  EXPECT_EQ(routing.ResolvedCount(kFn, 1), 10u);
  RoutingTable fresh(7);
  fresh.Place(kFn, 1);
  fresh.Place(kFn, 2);
  routing.Place(kFn, 2);
  EXPECT_EQ(routing.ResolveFor(kFn), fresh.ResolveFor(kFn));
}

}  // namespace
}  // namespace nadino
