// A worker/ingress/client node: host CPU cores, an RNIC, per-node tenant
// memory registry, and optionally a DPU (worker nodes in the paper's testbed
// carry BlueField-2s; the ingress node has plain ConnectX-6 RNICs).

#ifndef SRC_RUNTIME_NODE_H_
#define SRC_RUNTIME_NODE_H_

#include <memory>
#include <vector>

#include "src/core/env.h"
#include "src/core/types.h"
#include "src/dpu/dpu.h"
#include "src/mem/tenant_registry.h"
#include "src/rdma/rdma_engine.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"

namespace nadino {

class ConnectionService;

class Node {
 public:
  struct Config {
    int host_cores = 8;
    bool with_dpu = false;
  };

  Node(Env& env, NodeId id, RdmaNetwork* network, const Config& config);
  ~Node();  // Out of line: ConnectionService is forward-declared here.

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  int host_core_count() const { return static_cast<int>(cores_.size()); }
  FifoResource& host_core(int i) { return *cores_.at(static_cast<size_t>(i)); }

  // Assigns the next unassigned host core (functions and engines each get a
  // dedicated core, as in the paper's experiments). Wraps around when all
  // cores are taken (over-subscription, e.g. NightCore's single-node setup);
  // each wrapped allocation is recorded in node_core_oversubscribed{node} and
  // traced, so experiments that silently share cores are visible.
  FifoResource* AllocateCore();

  // Host-core allocations so far; values above host_core_count() mean the
  // allocator wrapped and cores are shared.
  int allocated_cores() const { return allocated_cores_; }

  // Starts a fresh utilization window on every host and DPU core.
  void ResetUtilizationWindows();

  Dpu* dpu() { return dpu_.get(); }
  RdmaEngine& rnic() { return *rnic_; }

  // The node's RDMA control plane: one ConnectionService owns every RC
  // connection the node holds, shared by all of its data-plane consumers
  // (engine, gateway workers, baseline pollers). Created lazily on first use
  // so nodes that never pool connections register no connmgr_* metrics —
  // the pre-refactor snapshot shape.
  ConnectionService& connections();
  ConnectionService* connections_or_null() { return connections_.get(); }
  TenantRegistry& tenants() { return tenants_; }
  Env& env() { return *env_; }
  Simulator* sim() { return &env_->sim(); }
  const CostModel& cost() const { return env_->cost(); }

 private:
  Env* env_;
  NodeId id_;
  std::vector<std::unique_ptr<FifoResource>> cores_;
  int next_core_ = 0;
  int allocated_cores_ = 0;
  // Lazily resolved on the first wrapped allocation (golden-preservation:
  // runs that never over-subscribe keep byte-identical metric snapshots).
  CounterHandle m_oversubscribed_;
  std::unique_ptr<Dpu> dpu_;
  std::unique_ptr<RdmaEngine> rnic_;
  std::unique_ptr<ConnectionService> connections_;
  TenantRegistry tenants_;
};

}  // namespace nadino

#endif  // SRC_RUNTIME_NODE_H_
