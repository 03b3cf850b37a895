// Routing-table placement semantics (src/runtime/routing_table.h): the first
// registration is the primary, later ones are replicas in registration order,
// and re-registering a node adds nothing. The table keeps no liveness or
// epoch state (there is no node-failure model, DESIGN.md §3d), so NodeOf is
// the primary for as long as the function is placed.

#include <gtest/gtest.h>

#include <vector>

#include "src/runtime/routing_table.h"

namespace nadino {
namespace {

TEST(RoutingEpochTest, PlacementOrderGivesPrimaryThenReplicas) {
  RoutingTable table(1);
  table.Place(7, 2);
  table.Place(7, 3);
  table.Place(7, 2);  // Idempotent: no duplicate replica.
  ASSERT_NE(table.PlacementsOf(7), nullptr);
  EXPECT_EQ(*table.PlacementsOf(7), (std::vector<NodeId>{2, 3}));

  EXPECT_EQ(table.NodeOf(7), 2u);  // Primary.
  EXPECT_EQ(table.NodeOf(99), kInvalidNode);  // Unknown function.
}

}  // namespace
}  // namespace nadino
