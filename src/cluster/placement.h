// The placement subsystem (DESIGN.md §3e): replica spreading and
// locality-aware chain placement — the layer that turns replicas into
// load-bearing capacity once the cluster grows past a node pair.
//
//   * ReplicaSpreader — a ReplicaSelector that rotates each function's
//     requests over its replicas. The Cluster owns one and installs it on
//     its routing table (Cluster::SpreadReplicas()).
//   * ChainPlacer — assigns a chain's call graph to worker nodes, colocating
//     adjacent stages until a node's slot budget fills and scoring candidate
//     assignments by expected fabric crossings (request + response per
//     cross-node call edge).
//
// Determinism contract: a rotor's start is a pure function of
// seed ^ function id and draws from no Rng stream, so equal seeds stay
// byte-identical, and experiments that never install the spreader are
// byte-identical to builds without it.

#ifndef SRC_CLUSTER_PLACEMENT_H_
#define SRC_CLUSTER_PLACEMENT_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/core/types.h"
#include "src/runtime/chain.h"
#include "src/runtime/routing_table.h"

namespace nadino {

// ---------------------------------------------------------------------------
// ReplicaSpreader
// ---------------------------------------------------------------------------

// Round-robin over replicas: each Pick serves the replica at the function's
// rotor and advances it, so replicas of one function serve within one pick
// of each other (asserted by tests/placement_spread_test.cc).
class ReplicaSpreader : public ReplicaSelector {
 public:
  explicit ReplicaSpreader(uint64_t seed);

  NodeId Pick(FunctionId function, const std::vector<NodeId>& replicas,
              NodeId src_node) override;
  NodeId Peek(FunctionId function, const std::vector<NodeId>& replicas,
              NodeId src_node) const override;

  uint64_t picks() const { return picks_; }

 private:
  // Per-function rotation over the replica set it was last picked from.
  struct SpreadState {
    std::vector<NodeId> nodes;
    size_t rotor = 0;
  };

  // The rotor the next pick from `replicas` serves: the state's own, carried
  // (mod the new size) across a replica-set change, or for a function never
  // picked a salted SplitMix64 draw of (seed, function) — a pure function, so
  // Peek and Pick agree and no shared stream ordering can leak between
  // functions.
  size_t RotorFor(FunctionId function, const std::vector<NodeId>& replicas,
                  const SpreadState* state) const;

  std::map<FunctionId, SpreadState> states_;
  uint64_t seed_;
  uint64_t picks_ = 0;
};

// ---------------------------------------------------------------------------
// ChainPlacer
// ---------------------------------------------------------------------------

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
