#include "src/cluster/cluster.h"

#include <algorithm>
#include <string>

namespace nadino {

Cluster::Cluster(const CostModel* cost, const ClusterConfig& config)
    : env_(&sim_, cost, config.seed), network_(env_), routing_(config.seed) {
  // Shard the event queue before any component schedules (SetShardCount is
  // safe mid-run, but pre-split keeps admission on per-node heaps from the
  // first event). 0 = one shard per worker node.
  sim_.SetShardCount(config.event_shards > 0
                         ? config.event_shards
                         : static_cast<uint32_t>(std::max(config.worker_nodes, 1)));
  // Parallel drain wiring (DESIGN.md §3h): the conservative lookahead is the
  // cost model's cross-shard delivery floor; with the default
  // event_workers=1 the drain stays serial and byte-identical.
  sim_.SetWorkerCount(config.event_workers);
  sim_.SetLookahead(cost->MinCrossShardDelay());
  for (int i = 0; i < config.worker_nodes; ++i) {
    Node::Config node_config;
    node_config.host_cores = config.host_cores_per_node;
    node_config.with_dpu = config.workers_have_dpu;
    AddWorkerNode(node_config);
  }
  if (config.with_ingress_node) {
    Node::Config node_config;
    node_config.host_cores = kIngressCores;
    node_config.with_dpu = false;
    ingress_ = std::make_unique<Node>(env_, kIngressNodeId, &network_, node_config);
  }
}

Node* Cluster::AddWorkerNode(const Node::Config& config) {
  const NodeId id = static_cast<NodeId>(workers_.size() + 1);
  workers_.push_back(std::make_unique<Node>(env_, id, &network_, config));
  return workers_.back().get();
}

void Cluster::CreateTenantPools(TenantId tenant, size_t buffers, size_t buffer_size) {
  for (auto& worker : workers_) {
    worker->tenants().CreatePool(tenant, "tenant_" + std::to_string(tenant),
                                 TenantRegistry::PoolConfig{buffers, buffer_size});
  }
}

}  // namespace nadino
