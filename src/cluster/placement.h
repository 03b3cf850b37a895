// Locality-aware chain placement (DESIGN.md §3e): the ChainPlacer assigns a
// chain's call graph to worker nodes, colocating adjacent stages until a
// node's slot budget fills and scoring candidate assignments by expected
// fabric crossings (request + response per cross-node call edge). Spreading
// requests over a function's replicas is the routing table's job
// (src/runtime/routing_table.h).

#ifndef SRC_CLUSTER_PLACEMENT_H_
#define SRC_CLUSTER_PLACEMENT_H_

#include <map>
#include <vector>

#include "src/core/types.h"
#include "src/runtime/chain.h"

namespace nadino {

// Locality-aware assignment of a chain's call graph: walk the DAG from the
// entry, keeping each callee on its caller's node until that node's slot
// budget fills, then spill to the least-loaded worker (ties to the lowest
// NodeId — deterministic by construction).
class ChainPlacer {
 public:
  // `workers` is the candidate node list (typically every worker);
  // `capacity_per_node` bounds functions per node (<= 0 means unbounded,
  // which degenerates to everything on one node).
  static std::map<FunctionId, NodeId> PlaceChain(const ChainSpec& spec,
                                                 const std::vector<NodeId>& workers,
                                                 int capacity_per_node);

  // Expected fabric crossings of one invocation under `assignment`: 2 per
  // cross-node call edge (request + response). Lower is better; the placer's
  // greedy colocation minimizes this against the capacity constraint.
  static int ScoreAssignment(const ChainSpec& spec,
                             const std::map<FunctionId, NodeId>& assignment);
};

}  // namespace nadino

#endif  // SRC_CLUSTER_PLACEMENT_H_
