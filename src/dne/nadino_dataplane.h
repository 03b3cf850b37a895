// NADINO's data plane: the unified I/O library over intra-node shared memory
// (SK_MSG descriptor IPC + token-passing ownership) and inter-node two-sided
// RDMA proxied by the per-node network engine (DNE on the DPU, or the CNE
// baseline on a host core).

#ifndef SRC_DNE_NADINO_DATAPLANE_H_
#define SRC_DNE_NADINO_DATAPLANE_H_

#include <map>
#include <memory>
#include <vector>

#include "src/dne/network_engine.h"
#include "src/rdma/wr_program.h"
#include "src/runtime/dataplane.h"
#include "src/runtime/routing_table.h"

namespace nadino {

class NadinoDataPlane : public DataPlane {
 public:
  struct Options {
    // Copied to every worker node's engine; AddWorkerNode assigns engine_id.
    // The data plane posts a deeper RECV ring than a bare engine's default.
    NetworkEngine::Config engine{.initial_recv_buffers = 256};
    // Applied to every worker node's control plane (src/rdma/control_plane.h).
    // The default kEager policy prewarms connections at attach; the lazy
    // policies skip the prewarm and establish on first use.
    ConnectionService::Config connections;
    int prewarm_connections = 2;
    // NIC-offloaded chain dispatch (src/rdma/wr_program.h): give every worker
    // node a WrProgramEngine so ChainExecutor::OffloadChain can install WR
    // programs at its RNIC. Off by default — the steering hook and the
    // wrprog_* metric keys exist only when enabled, keeping default runs
    // byte-identical (bench goldens).
    bool offload_chains = false;
  };

  NadinoDataPlane(Env& env, RoutingTable* routing, const Options& options);

  // Creates this worker node's network engine. Call before registering the
  // node's functions.
  NetworkEngine* AddWorkerNode(Node* node);

  // Attaches `tenant` (weight for DWRR) on every engine and, under the eager
  // policy, pre-establishes RC connections between every pair of worker nodes
  // for it. Returns the modeled control-plane setup latency (max over nodes;
  // each node's verbs serialize, nodes proceed in parallel) — zero under the
  // lazy policies, which defer setup to first use.
  SimDuration AttachTenant(TenantId tenant, uint32_t weight);

  // Tenant departure: destroys the tenant's pooled QPs on every node
  // (ConnectionService::DestroyTenant) so their RNIC context is reclaimed.
  // Returns the modeled reclaim latency (max over nodes).
  SimDuration DetachTenant(TenantId tenant);

  // Starts all engines (CQ handling + receive-buffer replenishers).
  void Start();

  void RegisterFunction(FunctionRuntime* function) override;
  bool Send(FunctionRuntime* src, Buffer* buffer) override;
  std::string name() const override;

  NetworkEngine* EngineAt(NodeId node);
  RoutingTable* routing() override { return routing_; }
  WrProgramEngine* wr_programs(NodeId node) override;

 private:
  bool SendIntraNode(FunctionRuntime* src, FunctionRuntime* dst, Buffer* buffer);
  bool SendInterNode(FunctionRuntime* src, Buffer* buffer, FunctionId dst);

  RoutingTable* routing_;
  Options options_;
  SkMsgChannel skmsg_;
  std::map<NodeId, std::unique_ptr<NetworkEngine>> engines_;
  // Per-node WR-program interpreters (Options::offload_chains only).
  std::map<NodeId, std::unique_ptr<WrProgramEngine>> wr_programs_;
  // Keyed per (function, node): a function replicated on several workers
  // registers one runtime per node (the routing table orders them
  // primary-first).
  std::map<FunctionId, std::map<NodeId, FunctionRuntime*>> functions_;
  std::vector<std::pair<TenantId, uint32_t>> tenants_;
  uint32_t next_engine_id_ = 1000;
};

}  // namespace nadino

#endif  // SRC_DNE_NADINO_DATAPLANE_H_
