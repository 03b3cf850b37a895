// N-node scaling acceptance (DESIGN.md §3e): RunNodeScale at 8 and 16 workers
// must (a) complete every request with zero errors, (b) spread entry
// resolutions across 2 replicas within the 1.5x skew bound, and (c) be
// deterministic — equal seeds reproduce the full metric snapshot
// byte-for-byte, including spreader rotations.

#include <gtest/gtest.h>

#include <string>

#include "src/core/experiments.h"

namespace nadino {
namespace {

NodeScaleOptions Scenario(int nodes, uint64_t seed) {
  NodeScaleOptions options;
  options.nodes = nodes;
  options.replicas = 2;
  options.tenants = 2;
  options.stages = 3;
  options.requests_per_tenant = 200;  // Smaller than the bench: test budget.
  options.seed = seed;
  return options;
}

class NodeScaleSpreadTest : public ::testing::TestWithParam<int> {};

TEST_P(NodeScaleSpreadTest, SpreadsReplicasAndCompletesEverything) {
  const int nodes = GetParam();
  const NodeScaleOptions options = Scenario(nodes, kDefaultSeed);
  const NodeScaleResult result = RunNodeScale(CostModel::Default(), options);

  const uint64_t expected =
      static_cast<uint64_t>(options.tenants) *
      static_cast<uint64_t>(options.requests_per_tenant);
  EXPECT_EQ(result.completed, expected);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_GT(result.rps, 0.0);
  EXPECT_GT(result.p99_latency_us, 0.0);

  // Replica spreading: both replicas of every measured function served a
  // comparable share. skew == max/min resolved counts; 1.0 is perfect.
  EXPECT_GT(result.replica_skew, 0.0) << "no multi-replica function saw traffic";
  EXPECT_LE(result.replica_skew, 1.5);

  // Entry traffic landed on more than one node (the direct evidence the
  // data plane consults the policy rather than pinning to the primary).
  EXPECT_GE(result.entry_resolved.size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Nodes, NodeScaleSpreadTest, ::testing::Values(8, 16));

class NodeScaleSnapshotTest : public ::testing::TestWithParam<int> {};

TEST_P(NodeScaleSnapshotTest, EqualSeedsProduceByteIdenticalSnapshots) {
  const int nodes = GetParam();
  const NodeScaleOptions options = Scenario(nodes, 0x5CA1Eull);
  const NodeScaleResult a = RunNodeScale(CostModel::Default(), options);
  const NodeScaleResult b = RunNodeScale(CostModel::Default(), options);
  EXPECT_EQ(a.metrics_text, b.metrics_text);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.entry_resolved, b.entry_resolved);
  EXPECT_EQ(a.chain_crossing_score, b.chain_crossing_score);

  // A different seed rotates the spreader elsewhere — the snapshot is
  // seed-sensitive, so the equality above is not vacuous.
  NodeScaleOptions other = options;
  other.seed = 0x0DDBA11ull;
  const NodeScaleResult c = RunNodeScale(CostModel::Default(), other);
  EXPECT_NE(a.metrics_text, c.metrics_text);
}

INSTANTIATE_TEST_SUITE_P(Nodes, NodeScaleSnapshotTest, ::testing::Values(8, 16));

}  // namespace
}  // namespace nadino
