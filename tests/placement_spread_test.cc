// ReplicaSpreader + RoutingTable policy plumbing (DESIGN.md §3e):
//   * round-robin — replicas serve in rotation, within one pick of each other;
//   * Peek/Pick agreement — PeekFor previews exactly what ResolveFor commits,
//     also across a replica-set change;
//   * determinism — equal seeds reproduce the pick sequence.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/cluster/placement.h"
#include "src/runtime/routing_table.h"

namespace nadino {
namespace {

constexpr FunctionId kFn = 7;

// Two replicas alternate, so counts differ by at most one — far inside the
// 1.5x acceptance bound.
TEST(ReplicaSpreaderTest, TwoReplicasStayWithinOnePick) {
  RoutingTable routing;
  ReplicaSpreader spreader(42);
  routing.Place(kFn, 1);
  routing.Place(kFn, 2);
  routing.SetPolicy(&spreader);
  for (int i = 0; i < 1001; ++i) {
    routing.ResolveFor(kFn, kInvalidNode);
  }
  const uint64_t a = routing.ResolvedCount(kFn, 1);
  const uint64_t b = routing.ResolvedCount(kFn, 2);
  EXPECT_EQ(a + b, 1001u);
  EXPECT_LE(a > b ? a - b : b - a, 1u);
}

// Every window of `replicas` consecutive picks serves each replica once.
TEST(ReplicaSpreaderTest, EveryRotationServesEachReplicaOnce) {
  RoutingTable routing;
  ReplicaSpreader spreader(0xBEEFu);
  for (NodeId node = 1; node <= 4; ++node) {
    routing.Place(kFn, node);
  }
  routing.SetPolicy(&spreader);
  for (int round = 0; round < 50; ++round) {
    std::set<NodeId> served;
    for (int i = 0; i < 4; ++i) {
      served.insert(routing.ResolveFor(kFn, kInvalidNode));
    }
    EXPECT_EQ(served.size(), 4u) << "round " << round;
  }
  EXPECT_EQ(spreader.picks(), 200u);
}

// The preview contract: PeekFor must name exactly the replica the next
// ResolveFor commits, at every step of the rotation.
TEST(ReplicaSpreaderTest, PeekMatchesNextPick) {
  RoutingTable routing;
  ReplicaSpreader spreader(0xFEEDu);
  for (NodeId node = 1; node <= 3; ++node) {
    routing.Place(kFn, node);
  }
  routing.SetPolicy(&spreader);
  for (int i = 0; i < 200; ++i) {
    const NodeId preview = routing.PeekFor(kFn, kInvalidNode);
    EXPECT_EQ(routing.ResolveFor(kFn, kInvalidNode), preview) << "step " << i;
  }
}

// The same contract while the replica set grows: the first pick after a
// change carries the rotor over, and Peek previews that carried rotor.
TEST(ReplicaSpreaderTest, PeekMatchesNextPickAsReplicaSetGrows) {
  for (const uint64_t seed : {3ull, 0x51ull, 0xC0FFEEull}) {
    RoutingTable routing;
    ReplicaSpreader spreader(seed);
    for (NodeId node = 1; node <= 2; ++node) {
      routing.Place(kFn, node);
    }
    routing.SetPolicy(&spreader);
    for (int i = 0; i < 100; ++i) {
      if (i == 31 || i == 64) {
        routing.Place(kFn, i == 31 ? 3 : 4);
      }
      const NodeId preview = routing.PeekFor(kFn, kInvalidNode);
      EXPECT_EQ(routing.ResolveFor(kFn, kInvalidNode), preview)
          << "step " << i << " under seed " << seed;
    }
    for (NodeId node = 1; node <= 4; ++node) {
      EXPECT_GT(routing.ResolvedCount(kFn, node), 0u) << "node " << node;
    }
  }
}

// Equal seeds must reproduce the pick sequence bit-for-bit; different seeds
// are free to start the rotor elsewhere.
TEST(ReplicaSpreaderTest, EqualSeedsReproducePickSequence) {
  for (const uint64_t seed : {1ull, 99ull, 0xA5A5ull}) {
    RoutingTable routing_a, routing_b;
    ReplicaSpreader spreader_a(seed), spreader_b(seed);
    for (NodeId node = 1; node <= 4; ++node) {
      routing_a.Place(kFn, node);
      routing_b.Place(kFn, node);
    }
    routing_a.SetPolicy(&spreader_a);
    routing_b.SetPolicy(&spreader_b);
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(routing_a.ResolveFor(kFn, kInvalidNode),
                routing_b.ResolveFor(kFn, kInvalidNode))
          << "diverged at step " << i << " under seed " << seed;
    }
  }
}

// A single replica short-circuits: the policy is never consulted, so
// unreplicated functions accumulate no per-function spreader state.
TEST(ReplicaSpreaderTest, SingleReplicaBypassesPolicy) {
  RoutingTable routing;
  ReplicaSpreader spreader(7);
  routing.Place(kFn, 1);
  routing.SetPolicy(&spreader);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(routing.ResolveFor(kFn, kInvalidNode), 1u);
    EXPECT_EQ(routing.PeekFor(kFn, kInvalidNode), 1u);
  }
  EXPECT_EQ(spreader.picks(), 0u);
}

}  // namespace
}  // namespace nadino
