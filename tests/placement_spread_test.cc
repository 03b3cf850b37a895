// WeightedSpreader + RoutingTable policy plumbing (DESIGN.md §3e):
//   * randomized property — long-run serve proportions converge to the
//     configured weights for any seed and any weight vector;
//   * Peek/Pick agreement — PeekFor previews exactly what ResolveFor commits;
//   * policy-aware colocation (the SameNode-compares-primaries bugfix);
//   * Migrate() semantics — placement moves and primary promotion.

#include <gtest/gtest.h>

#include <vector>

#include "src/cluster/placement.h"
#include "src/runtime/routing_table.h"
#include "src/sim/random.h"

namespace nadino {
namespace {

constexpr FunctionId kFn = 7;

// ---------------------------------------------------------------------------
// Randomized weight-convergence property
// ---------------------------------------------------------------------------

class SpreadProportionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpreadProportionTest, ServesProportionallyToRandomWeights) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const int replicas = static_cast<int>(rng.UniformInt(2, 5));
  RoutingTable routing;
  WeightedSpreader spreader(seed);
  std::vector<NodeId> nodes;
  std::vector<double> weights;
  double total_weight = 0.0;
  for (int i = 0; i < replicas; ++i) {
    const NodeId node = static_cast<NodeId>(i + 1);
    const double weight = rng.Uniform(0.5, 4.0);
    routing.Place(kFn, node);
    nodes.push_back(node);
    weights.push_back(weight);
    total_weight += weight;
  }
  spreader.SetWeightFn([&weights](NodeId node) { return weights[node - 1]; });
  routing.SetPolicy(&spreader);

  constexpr int kPicks = 6000;
  for (int i = 0; i < kPicks; ++i) {
    ASSERT_NE(routing.ResolveFor(kFn, kInvalidNode), kInvalidNode);
  }
  for (int i = 0; i < replicas; ++i) {
    const double expected = kPicks * weights[static_cast<size_t>(i)] / total_weight;
    const double actual = static_cast<double>(routing.ResolvedCount(kFn, nodes[static_cast<size_t>(i)]));
    // DWRR deficits are bounded, so convergence is tight: 2% + a few picks
    // of slack absorbs the partial final rotation.
    EXPECT_NEAR(actual, expected, expected * 0.02 + 8.0)
        << "replica " << nodes[static_cast<size_t>(i)] << " under seed " << seed;
  }
  EXPECT_EQ(spreader.picks(), static_cast<uint64_t>(kPicks));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpreadProportionTest,
                         ::testing::Values(0x1u, 0x2Au, 0x3Bu, 0x4Cu, 0x5Du, 0xBEEFu,
                                           0xCAFEu, 0xD00Du));

// Equal weights: two replicas alternate, so counts differ by at most one —
// far inside the 1.5x acceptance bound.
TEST(WeightedSpreaderTest, EqualWeightsStayWithinOnePick) {
  RoutingTable routing;
  WeightedSpreader spreader(42);
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

// The preview contract: PeekFor must name exactly the replica the next
// ResolveFor commits, at every step of the rotation.
TEST(WeightedSpreaderTest, PeekMatchesNextPick) {
  RoutingTable routing;
  WeightedSpreader spreader(0xFEEDu);
  for (NodeId node = 1; node <= 3; ++node) {
    routing.Place(kFn, node);
  }
  const std::vector<double> weights = {1.0, 2.5, 0.75};
  spreader.SetWeightFn([&weights](NodeId node) { return weights[node - 1]; });
  routing.SetPolicy(&spreader);
  for (int i = 0; i < 200; ++i) {
    const NodeId preview = routing.PeekFor(kFn, kInvalidNode);
    EXPECT_EQ(routing.ResolveFor(kFn, kInvalidNode), preview) << "step " << i;
  }
}

// The same contract under churn: weights redrawn before every step, the
// replica set growing twice (Peek previews the state a rebuild would carry
// its deficits into) and then migrating a replica away (a fresh state).
TEST(WeightedSpreaderTest, PeekMatchesNextPickUnderRandomWeights) {
  for (const uint64_t seed : {3ull, 0x51ull, 0xC0FFEEull}) {
    Rng rng(seed);
    RoutingTable routing;
    WeightedSpreader spreader(seed);
    std::vector<double> weights(6, 1.0);
    spreader.SetWeightFn([&weights](NodeId node) { return weights[node - 1]; });
    for (NodeId node = 1; node <= 3; ++node) {
      routing.Place(kFn, node);
    }
    routing.SetPolicy(&spreader);
    for (int i = 0; i < 600; ++i) {
      if (i == 200 || i == 350) {
        routing.Place(kFn, i == 200 ? 4 : 5);
      } else if (i == 500) {
        ASSERT_TRUE(routing.Migrate(kFn, 2, 4));
      }
      for (double& weight : weights) {
        weight = rng.Uniform(0.05, 4.0);
      }
      const NodeId preview = routing.PeekFor(kFn, kInvalidNode);
      EXPECT_EQ(routing.ResolveFor(kFn, kInvalidNode), preview)
          << "step " << i << " under seed " << seed;
    }
  }
}

// Equal seeds must reproduce the pick sequence bit-for-bit; different seeds
// are free to start the rotor elsewhere.
TEST(WeightedSpreaderTest, EqualSeedsReproducePickSequence) {
  for (const uint64_t seed : {1ull, 99ull, 0xA5A5ull}) {
    RoutingTable routing_a, routing_b;
    WeightedSpreader spreader_a(seed), spreader_b(seed);
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
TEST(WeightedSpreaderTest, SingleReplicaBypassesPolicy) {
  RoutingTable routing;
  WeightedSpreader spreader(7);
  routing.Place(kFn, 1);
  routing.SetPolicy(&spreader);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(routing.ResolveFor(kFn, kInvalidNode), 1u);
    EXPECT_EQ(routing.PeekFor(kFn, kInvalidNode), 1u);
  }
  EXPECT_EQ(spreader.picks(), 0u);
}

// ---------------------------------------------------------------------------
// Policy-aware colocation (SameNode bugfix)
// ---------------------------------------------------------------------------

// Always serves the last replica, so resolution and head-of-list differ.
class LastReplicaSelector : public ReplicaSelector {
 public:
  NodeId Pick(FunctionId, const std::vector<NodeId>& replicas, NodeId) override {
    return replicas.back();
  }
  NodeId Peek(FunctionId, const std::vector<NodeId>& replicas, NodeId) const override {
    return replicas.back();
  }
  void Invalidate(FunctionId) override {}
};

TEST(RoutingColocationTest, ColocationFollowsResolutionNotPrimaries) {
  RoutingTable routing;
  // a's primary is node 1; b's primary is node 2 but it also lives on 1.
  routing.Place(100, 1);
  routing.Place(200, 2);
  routing.Place(200, 1);
  // Primaries differ -> not colocated under primary resolution.
  EXPECT_FALSE(routing.SameNode(100, 200));
  // A policy that serves b from node 1: the pair is colocated even though
  // the head-of-list placements still differ — the old first-placement
  // comparison got this wrong.
  LastReplicaSelector last;
  routing.SetPolicy(&last);
  EXPECT_TRUE(routing.SameNode(100, 200));
  EXPECT_TRUE(routing.ColocatedWith(100, 200, /*src_node=*/1));
  // An unroutable side is never "colocated".
  EXPECT_FALSE(routing.SameNode(100, 999));
}

// ---------------------------------------------------------------------------
// Migration
// ---------------------------------------------------------------------------

TEST(RoutingMigrateTest, MigratePromotesTarget) {
  RoutingTable routing;
  routing.Place(kFn, 1);
  routing.Place(kFn, 2);
  routing.Place(kFn, 3);

  EXPECT_TRUE(routing.Migrate(kFn, 1, 3));
  EXPECT_EQ(routing.NodeOf(kFn), 3u) << "migration target promoted to primary";
  EXPECT_EQ(*routing.PlacementsOf(kFn), (std::vector<NodeId>{3, 2}));

  // Invalid migrations: unknown source, unplaced target, self-move — all
  // rejected without touching the placement list.
  EXPECT_FALSE(routing.Migrate(kFn, 1, 2)) << "1 is no longer a placement";
  EXPECT_FALSE(routing.Migrate(kFn, 3, 9)) << "9 is not a placement";
  EXPECT_FALSE(routing.Migrate(kFn, 3, 3));
  EXPECT_EQ(*routing.PlacementsOf(kFn), (std::vector<NodeId>{3, 2}));
}

TEST(RoutingMigrateTest, MigrateInvalidatesSpreaderState) {
  RoutingTable routing;
  WeightedSpreader spreader(3);
  routing.Place(kFn, 1);
  routing.Place(kFn, 2);
  routing.SetPolicy(&spreader);
  for (int i = 0; i < 5; ++i) {
    routing.ResolveFor(kFn, kInvalidNode);
  }
  ASSERT_TRUE(routing.Migrate(kFn, 1, 2));
  // Only node 2 remains: every subsequent resolution is the short-circuit.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(routing.ResolveFor(kFn, kInvalidNode), 2u);
  }
}

}  // namespace
}  // namespace nadino
