// The first-class cluster layer: node assembly (NodeId allocation, fabric
// attachment, ingress/worker roles) and the cluster-wide routing table.
// Mirrors the paper's testbed (section 4): worker nodes with BlueField-2
// DPUs, an ingress node with plain RNICs, all on one 200 Gbps switch,
// generalised to N worker nodes.
//
// Experiments construct a Cluster and build data planes / gateways against
// its Env.

#ifndef SRC_CLUSTER_CLUSTER_H_
#define SRC_CLUSTER_CLUSTER_H_

#include <memory>
#include <vector>

#include "src/core/calibration.h"
#include "src/core/env.h"
#include "src/rdma/rdma_engine.h"
#include "src/runtime/node.h"
#include "src/runtime/routing_table.h"
#include "src/sim/simulator.h"

namespace nadino {

// Worker NodeIds are allocated densely from 1; the ingress node sits in its
// own id range so worker indices and NodeIds stay visually distinct in
// traces and metric labels.
inline constexpr NodeId kIngressNodeId = 50;
// Host cores on the ingress node (gateway workers, no DPU).
inline constexpr int kIngressCores = 12;

struct ClusterConfig {
  int worker_nodes = 2;
  int host_cores_per_node = 12;
  bool workers_have_dpu = true;
  bool with_ingress_node = true;
  // Event-queue shards for the simulator (clamped to [1, kMaxShards]). 0 =
  // one shard per worker node, the intended mapping for big topologies; 1 =
  // the classic single heap. Any value produces byte-identical runs (the
  // (when, seq) merge in src/sim/simulator.h); shards only change wall-clock.
  uint32_t event_shards = 1;
  // Drain workers for the simulator (clamped to [1, kMaxWorkers]). 1 = the
  // serial drain, byte-identical to the pre-parallel simulator. W>1 drains
  // the shards on W threads as a conservative PDES whose lookahead is
  // CostModel::MinCrossShardDelay(); runs stay deterministic for a fixed
  // shard count regardless of W, but callbacks must honour the shard
  // confinement contract (DESIGN.md §3h) — the full data-plane model does
  // not yet, so only shard-confined workloads (e.g. RunParallelDrain) may
  // raise this.
  uint32_t event_workers = 1;
  // Seeds the cluster Env's PRNG; equal seeds reproduce runs bit-for-bit,
  // including the metrics snapshot (tests/determinism_test.cc).
  uint64_t seed = kDefaultSeed;
};

class Cluster {
 public:
  Cluster(const CostModel* cost, const ClusterConfig& config);

  // The unified context every component is constructed against. The cluster
  // owns it: one experiment, one metric namespace, one random stream.
  Env& env() { return env_; }
  MetricsRegistry& metrics() { return env_.metrics(); }

  Simulator& sim() { return sim_; }
  RdmaNetwork& network() { return network_; }
  RoutingTable& routing() { return routing_; }
  const CostModel& cost() const { return env_.cost(); }
  int worker_count() const { return static_cast<int>(workers_.size()); }
  Node* worker(int i) { return workers_.at(static_cast<size_t>(i)).get(); }
  Node* ingress() { return ingress_.get(); }

  // Adds one more worker node after construction (scale-out paths); takes
  // the next dense worker NodeId.
  Node* AddWorkerNode(const Node::Config& config);

  // Creates `tenant`'s unified pool on every worker node.
  void CreateTenantPools(TenantId tenant, size_t buffers = 8192, size_t buffer_size = 16384);

 private:
  Simulator sim_;
  Env env_;  // After sim_: constructed against it.
  RdmaNetwork network_;
  RoutingTable routing_;  // Seeded by ClusterConfig::seed.
  std::vector<std::unique_ptr<Node>> workers_;
  std::unique_ptr<Node> ingress_;
};

}  // namespace nadino

#endif  // SRC_CLUSTER_CLUSTER_H_
