// Baseline serverless data planes (paper section 4.3), assembled from the
// same substrates as NADINO so wins and losses come from architecture, not
// implementation fiat:
//
//   * SPRIGHT [78]  — intra-node: zero-copy SK_MSG shared memory; inter-node:
//     a CPU network engine relaying payloads over the *kernel* TCP stack
//     (socket copies on both sides).
//   * NightCore [42] — single-node only: all functions co-located; its
//     message bus (a CPU engine) mediates every shared-memory exchange.
//   * FUYAO [64]    — intra-node SK_MSG; inter-node one-sided RDMA writes
//     into a *dedicated RDMA pool* at the receiver, discovered by a
//     busy-polling CPU core and copied into the tenant's shared-memory pool
//     (the receiver-side copy + separate pools of Fig. 3 (2)).
//   * Junction [36] — per-function kernel-bypass userspace TCP for all
//     communication (no engine), plus one dedicated scheduler core per node.

#ifndef SRC_BASELINES_BASELINE_DATAPLANE_H_
#define SRC_BASELINES_BASELINE_DATAPLANE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/calibration.h"
#include "src/mem/copy_engine.h"
#include "src/rdma/control_plane.h"
#include "src/runtime/dataplane.h"
#include "src/runtime/routing_table.h"
#include "src/runtime/skmsg.h"
#include "src/transport/tcp_model.h"

namespace nadino {

enum class BaselineSystem : uint8_t {
  kSpright,
  kNightcore,
  kFuyao,
  kJunction,
};

class BaselineDataPlane : public DataPlane {
 public:
  BaselineDataPlane(Env& env, RoutingTable* routing, BaselineSystem system, TenantId tenant);

  // Adds a worker node: allocates the relay-engine core (SPRIGHT/NightCore/
  // FUYAO), the FUYAO RDMA pool + poller, or the Junction scheduler core.
  void AddWorkerNode(Node* node);

  // Pre-establishes FUYAO's RC connections between all node pairs. No-op for
  // the TCP systems.
  void Start();

  void RegisterFunction(FunctionRuntime* function) override;
  bool Send(FunctionRuntime* src, Buffer* buffer) override;
  std::string name() const override;
  RoutingTable* routing() override { return routing_; }

  BaselineSystem system() const { return system_; }
  uint64_t fuyao_copies() const { return copier_.copies(); }

  // Engine/scheduler core utilization across nodes, in cores (Fig. 16 (4-6)).
  double EngineUtilizationCores() const;

 private:
  struct NodeState {
    Node* node = nullptr;
    FifoResource* engine_core = nullptr;     // Relay / poller / scheduler.
    BufferPool* rdma_pool = nullptr;         // FUYAO only.
    ConnectionService* connections = nullptr;  // FUYAO only (node-owned).
    uint32_t next_slot = 0;                  // FUYAO remote-slot cursor.
    std::optional<Fabric::DirectSender> wire;  // Kernel-TCP relay and Junction.
  };

  NodeState* StateOf(NodeId node);

  bool SendIntraNode(FunctionRuntime* src, FunctionRuntime* dst, Buffer* buffer);
  bool SendInterTcp(FunctionRuntime* src, Buffer* buffer, FunctionId dst_fn, NodeId dst_node);
  bool SendInterFuyao(FunctionRuntime* src, Buffer* buffer, FunctionId dst_fn, NodeId dst_node);
  bool SendInterJunction(FunctionRuntime* src, Buffer* buffer, FunctionId dst_fn,
                         NodeId dst_node);

  // Receiver-side delivery once the payload bytes exist in a `dst`-node
  // tenant-pool buffer owned by the data plane.
  void DeliverAtNode(NodeState* state, Buffer* buffer, FunctionId dst_fn);

  void FuyaoPollerDiscovery(NodeState* state, Buffer* rdma_buffer);

  OwnerId engine_owner(NodeId node) const { return OwnerId::Engine(3000 + node); }

  RoutingTable* routing_;
  BaselineSystem system_;
  TenantId tenant_;
  SkMsgChannel skmsg_;
  CopyEngine copier_;
  TcpStackModel relay_stack_;
  TcpStackModel junction_stack_;
  std::map<NodeId, NodeState> nodes_;
  std::map<FunctionId, FunctionRuntime*> functions_;
  uint64_t next_wr_id_ = 1;
  std::map<uint64_t, std::pair<Buffer*, BufferPool*>> in_flight_writes_;
};

}  // namespace nadino

#endif  // SRC_BASELINES_BASELINE_DATAPLANE_H_
