// The placement subsystem (DESIGN.md §3e): replica-aware weighted spreading,
// locality-aware chain placement, and live rebalancing — the layer that turns
// replicas into load-bearing capacity once the cluster grows past a node
// pair (Palladium is the multi-node reference).
//
// Three cooperating pieces, owned by a PlacementManager the Cluster attaches
// via EnablePlacement():
//
//   * WeightedSpreader — a ReplicaSelector doing DWRR-style deficit rotation
//     over the replicas of each function. Weights come from static
//     per-node overrides (tests), or from a weight callback fed by node
//     utilization and SLO burn (the PR 5 follow-up).
//   * ChainPlacer — assigns a chain's call graph to worker nodes, colocating
//     adjacent stages until a node's slot budget fills and scoring candidate
//     assignments by expected fabric crossings (request + response per
//     cross-node call edge).
//   * Rebalancer — an opt-in periodic controller on a seeded, jittered tick
//     that migrates the hottest multi-replica function off an overloaded node
//     through RoutingTable::Migrate.
//
// Determinism contract: spreading and rebalancing draw only from seeded,
// salted Rng state (spreader rotors are pure functions of seed ^ function id;
// the rebalancer's tick jitter comes from a private decorrelated stream), so
// equal seeds stay byte-identical, and experiments that never enable the
// subsystem are byte-identical to builds without it.

#ifndef SRC_CLUSTER_PLACEMENT_H_
#define SRC_CLUSTER_PLACEMENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/core/env.h"
#include "src/core/types.h"
#include "src/runtime/chain.h"
#include "src/runtime/routing_table.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace nadino {

class Node;

// ---------------------------------------------------------------------------
// WeightedSpreader
// ---------------------------------------------------------------------------

// DWRR-style deficit rotation over replicas: each Pick serves one
// request from the rotor position with deficit >= 1, replenishing every
// replica by weight/max_weight when a full scan finds none. Long-run serve
// proportions converge to the configured weights (asserted by
// tests/placement_spread_test.cc across seeds).
class WeightedSpreader : public ReplicaSelector {
 public:
  // Maps a node to its current weight (> 0). Consulted at every replenish,
  // so utilization-fed weights steer traffic within a few rotations.
  using WeightFn = std::function<double(NodeId)>;

  explicit WeightedSpreader(uint64_t seed);

  // Dynamic weight source (e.g. 1 - node utilization, sharpened by SLO burn).
  void SetWeightFn(WeightFn fn) { weight_fn_ = std::move(fn); }

  NodeId Pick(FunctionId function, const std::vector<NodeId>& replicas,
              NodeId src_node) override;
  NodeId Peek(FunctionId function, const std::vector<NodeId>& replicas,
              NodeId src_node) const override;
  void Invalidate(FunctionId function) override;

  uint64_t picks() const { return picks_; }
  double WeightOf(NodeId node) const;

 private:
  // Per-function rotation state over its current replica set. Rebuilt
  // (surviving deficits preserved) whenever the replica set changes.
  struct SpreadState {
    std::vector<NodeId> nodes;
    std::vector<double> deficit;
    size_t rotor = 0;
  };

  // Initial rotor for a fresh state: a salted SplitMix64 draw of
  // (seed, function), a pure function so Peek and Pick agree and no shared
  // stream ordering can leak between functions.
  size_t InitialRotor(FunctionId function, size_t replicas) const;
  // Fills `fresh` (which must not be `old`) with the state for `replicas`,
  // carrying `old`'s surviving deficits and rotor when there is one.
  void Rebuild(FunctionId function, const std::vector<NodeId>& replicas, const SpreadState* old,
               SpreadState& fresh) const;
  // Serves one pick from `state` (deficit decrement + rotor advance).
  NodeId Choose(SpreadState& state) const;

  std::map<FunctionId, SpreadState> states_;
  mutable SpreadState scratch_;  // Peek's simulated pick; not safe across threads.
  WeightFn weight_fn_;
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

// ---------------------------------------------------------------------------
// Rebalancer
// ---------------------------------------------------------------------------

struct RebalancerOptions {
  SimDuration period = 50 * kMillisecond;
  // Migration trigger: hottest node's utilization above this...
  double overload_util = 0.75;
  // ...with a replica target below this.
  double headroom_util = 0.60;
};

class Rebalancer {
 public:
  using NodeUtilFn = std::function<double(NodeId)>;  // Utilization in [0, 1].
  using BurnFn = std::function<bool()>;              // Any tenant SLO burning?

  // While any tenant burns SLO error budget, the trigger drops to this —
  // queueing is already costing a tenant its SLO, so capacity moves earlier.
  static constexpr double kBurnOverloadUtil = 0.50;
  // Per-tick launch stagger upper bound (private salted stream).
  static constexpr SimDuration kMaxJitter = 100 * kMicrosecond;

  Rebalancer(Env& env, RoutingTable* routing, std::vector<NodeId> workers,
             NodeUtilFn node_util, BurnFn slo_burning, const RebalancerOptions& options);

  Rebalancer(const Rebalancer&) = delete;
  Rebalancer& operator=(const Rebalancer&) = delete;

  // Schedules the first tick; idempotent.
  void Start();

  uint64_t ticks() const { return ticks_; }
  uint64_t migrations() const { return migrations_; }
  const RebalancerOptions& options() const { return options_; }

 private:
  void Tick();
  // Migrates at most one hot function off `hot`, given this tick's
  // utilization snapshot.
  void MigrateFrom(NodeId hot, const std::map<NodeId, double>& utils);

  Env* env_;
  RoutingTable* routing_;
  std::vector<NodeId> workers_;
  NodeUtilFn node_util_;
  BurnFn slo_burning_;
  RebalancerOptions options_;
  Rng rng_;  // Private, decorrelated from the workload stream (seed salt).
  bool started_ = false;
  uint64_t ticks_ = 0;
  uint64_t migrations_ = 0;
  // Resolved on the first migration (lazy-creation contract: runs that never
  // migrate keep byte-identical snapshots).
  CounterHandle m_migrations_;
};

// ---------------------------------------------------------------------------
// PlacementManager
// ---------------------------------------------------------------------------

struct PlacementOptions {
  // Install the weighted spreader as the routing table's replica selector.
  bool spread = true;
  // Feed spreader weights from live node utilization (1 - util, floored),
  // sharpened while any tenant burns SLO budget. Off: uniform weights unless
  // a test sets static overrides.
  bool utilization_weights = false;
  // Start the live rebalancer.
  bool rebalance = false;
  RebalancerOptions rebalancer;
};

// Facade owning the spreader and rebalancer, wired by Cluster::
// EnablePlacement() with the cluster's seed, routing table, and per-node
// utilization sources.
class PlacementManager {
 public:
  PlacementManager(Env& env, RoutingTable* routing, const PlacementOptions& options,
                   uint64_t seed);

  PlacementManager(const PlacementManager&) = delete;
  PlacementManager& operator=(const PlacementManager&) = delete;

  ~PlacementManager();

  // Registers a worker node as a utilization source / migration target.
  void AddWorker(Node* node);

  // Installs the spreader policy and starts the rebalancer per options.
  void Start();

  WeightedSpreader& spreader() { return *spreader_; }
  Rebalancer* rebalancer() { return rebalancer_.get(); }
  uint64_t migrations() const { return rebalancer_ == nullptr ? 0 : rebalancer_->migrations(); }

  // Utilization of `node` in [0, 1] (useful-work cores / core count).
  double NodeUtilization(NodeId node) const;

 private:
  Env* env_;
  RoutingTable* routing_;
  PlacementOptions options_;
  std::map<NodeId, Node*> workers_;
  std::unique_ptr<WeightedSpreader> spreader_;
  std::unique_ptr<Rebalancer> rebalancer_;
  bool started_ = false;
};

}  // namespace nadino

#endif  // SRC_CLUSTER_PLACEMENT_H_
