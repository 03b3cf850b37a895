#include "src/cluster/cluster.h"

#include <algorithm>
#include <string>

#include "src/rdma/control_plane.h"

namespace nadino {

Cluster::Cluster(const CostModel* cost, const ClusterConfig& config)
    : env_(&sim_, cost, config.seed),
      network_(env_),
      membership_(env_, &routing_),
      config_(config) {
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
  // Control-plane hygiene: when membership declares a node dead, every other
  // node's ConnectionService quiesces its idle active QPs toward it (the
  // active -> shadow transition), reclaiming RNIC cache context while the
  // pools survive for post-heal reactivation. Nodes that never pooled a
  // connection have no service (connections_or_null) and are skipped.
  membership_.Subscribe([this](NodeId node, NodeHealth health, uint64_t /*epoch*/) {
    if (health != NodeHealth::kDead) {
      return;
    }
    for (auto& worker : workers_) {
      if (worker->id() == node) {
        continue;
      }
      if (ConnectionService* service = worker->connections_or_null()) {
        service->QuiescePeer(node);
      }
    }
    if (ingress_ != nullptr && ingress_->id() != node) {
      if (ConnectionService* service = ingress_->connections_or_null()) {
        service->QuiescePeer(node);
      }
    }
  });
  for (int i = 0; i < config.worker_nodes; ++i) {
    Node::Config node_config;
    node_config.host_cores = config.host_cores_per_node;
    node_config.with_dpu = config.workers_have_dpu;
    node_config.dpu_cores = config.dpu_cores;
    AddWorkerNode(node_config);
  }
  if (config.with_ingress_node) {
    Node::Config node_config;
    node_config.host_cores = kIngressCores;
    node_config.with_dpu = false;
    ingress_ = std::make_unique<Node>(env_, kIngressNodeId, &network_, node_config);
    membership_.AddNode(kIngressNodeId, NodeRole::kIngress);
  }
}

Node* Cluster::AddWorkerNode(const Node::Config& config) {
  const NodeId id = static_cast<NodeId>(workers_.size() + 1);
  workers_.push_back(std::make_unique<Node>(env_, id, &network_, config));
  membership_.AddNode(id, NodeRole::kWorker);
  if (placement_ != nullptr) {
    placement_->AddWorker(workers_.back().get());
  }
  return workers_.back().get();
}

void Cluster::CreateTenantPools(TenantId tenant, size_t buffers, size_t buffer_size) {
  for (auto& worker : workers_) {
    worker->tenants().CreatePool(tenant, "tenant_" + std::to_string(tenant),
                                 TenantRegistry::PoolConfig{buffers, buffer_size});
  }
}

void Cluster::StartHealthMonitor() {
  if (health_ == nullptr) {
    const NodeId monitor_node =
        ingress_ != nullptr ? ingress_->id() : workers_.front()->id();
    health_ = std::make_unique<HealthMonitor>(env_, &membership_, &network_.fabric(),
                                              monitor_node);
  }
  health_->Start();
}

PlacementManager* Cluster::EnablePlacement(const PlacementOptions& options) {
  if (placement_ == nullptr) {
    placement_ = std::make_unique<PlacementManager>(env_, &routing_, options, config_.seed);
    for (auto& worker : workers_) {
      placement_->AddWorker(worker.get());
    }
    placement_->Start();
  }
  return placement_.get();
}

int Cluster::SeverNode(NodeId node, SimTime at, SimTime until) {
  FaultSpec spec;
  spec.site = FaultSite::kNodePartition;
  spec.action = FaultAction::kDrop;
  spec.node = node;
  spec.window_start = at;
  spec.window_end = until;
  return env_.faults().Install(spec);
}

}  // namespace nadino
