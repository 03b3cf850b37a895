// Cluster-wide ingress gateway (paper section 3.6).
//
// Master-worker architecture: worker processes each own a pinned core running
// a busy-poll event loop that performs all data-plane work; the master does
// control-plane work (configuration, horizontal scaling). Three modes mirror
// the section 4.1.3 comparison:
//   * kNadino   — F-stack terminates client HTTP/TCP at the edge; the payload
//                 crosses the cluster over two-sided RDMA (early transport
//                 conversion, Fig. 4 (2));
//   * kFIngress — NGINX+F-stack HTTP proxy; TCP is *also* terminated at the
//                 worker node (deferred conversion, Fig. 4 (1));
//   * kKIngress — same shape on the interrupt-driven kernel stack.
//
// Client traffic spreads over workers via RSS; the hysteresis autoscaler adds
// a worker above 60% average useful utilization and removes one below 30%,
// with the brief restart interruption the paper observes in Fig. 14.

#ifndef SRC_INGRESS_GATEWAY_H_
#define SRC_INGRESS_GATEWAY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/env.h"
#include "src/dne/network_engine.h"
#include "src/dne/rbr_table.h"
#include "src/mem/buffer_pool.h"
#include "src/rdma/control_plane.h"
#include "src/runtime/chain.h"
#include "src/runtime/dataplane.h"
#include "src/runtime/node.h"
#include "src/runtime/routing_table.h"
#include "src/sim/flat_id_map.h"
#include "src/transport/http.h"
#include "src/transport/tcp_model.h"

namespace nadino {

enum class IngressMode : uint8_t { kNadino, kFIngress, kKIngress };

class IngressGateway {
 public:
  struct Options {
    IngressMode mode = IngressMode::kNadino;
    TenantId tenant = 0;
    int initial_workers = 1;
    int max_workers = 8;
    bool autoscale = false;
    int prewarm_connections = 4;
    uint32_t engine_id = 2000;  // OwnerId::Engine id for the gateway.
    // Which stack terminates TCP at the *worker node* in deferred-conversion
    // modes (the paper uses F-stack there for its Fig. 13 baselines).
    TcpStackKind worker_stack = TcpStackKind::kFstack;
  };

  IngressGateway(Env& env, Node* ingress_node, RoutingTable* routing, DataPlane* dataplane,
                 ChainExecutor* executor, const Options& options);

  IngressGateway(const IngressGateway&) = delete;
  IngressGateway& operator=(const IngressGateway&) = delete;

  // Maps an HTTP target path to a chain entry. Validates the route by
  // serializing and re-parsing a real HTTP request through the codec once.
  void AddRoute(const std::string& path, ChainId chain, FunctionId entry_function);

  // kNadino mode: wires RDMA to each worker-node engine (recv buffers on the
  // ingress pool, RC connections both directions).
  void ConnectWorkerEngines(const std::vector<NetworkEngine*>& engines);

  // Deferred-conversion modes: creates a TCP-terminating portal function on
  // each worker node (registered with the data plane like a normal function).
  void ConnectWorkerPortals(const std::vector<Node*>& worker_nodes);

  // Entry point for the load generator, called after client-side wire delay.
  // `done` fires when the HTTP response has reached the client.
  void SubmitRequest(uint32_t client_id, const std::string& path, uint32_t payload_bytes,
                     std::function<void()> done);

  int active_workers() const;
  // Sum of busy-poll-aware worker utilizations (cores); Fig. 14's CPU series.
  double WorkerUtilizationCores() const;
  // Worker-node portal cores (deferred-conversion modes), in cores.
  double PortalUtilizationCores() const;
  // Average *useful* utilization — what the autoscaler sees.
  double AverageUsefulUtilization() const;
  void ResetUtilizationWindows();

  OwnerId owner_id() const { return OwnerId::Engine(options_.engine_id); }

 private:
  struct Worker {
    int index = 0;
    FifoResource* core = nullptr;
    FunctionId self_fn = kInvalidFunction;
    // The ingress node's shared control plane; each worker keys its pools
    // with its own stream (index), preserving the per-worker pools of the
    // pre-ConnectionService gateway.
    ConnectionService* connections = nullptr;
    bool active = false;
  };

  struct Route {
    ChainId chain = 0;
    FunctionId entry = kInvalidFunction;
  };

  struct Pending {
    std::function<void()> done;
    int worker = 0;
    uint32_t response_bytes = 0;
  };

  Worker* PickWorker(uint32_t client_id);
  void StartWorker(int index);

  // NADINO mode data path.
  void NadinoHandleRequest(Worker* worker, const Route& route, uint32_t payload_bytes,
                           uint64_t request_id);
  // The post-Acquire tail of NadinoHandleRequest (control cost, RNIC post);
  // split out so a lazy establishment can resume the request when its
  // handshake lands.
  void PostNadinoSend(Worker* worker, Buffer* buffer, const Route& route,
                      uint64_t request_id, const ConnectionService::Acquired& acquired);
  void NadinoHandleResponse(Worker* worker, Buffer* buffer);
  void OnRnicCompletion(const Completion& cqe);
  void PostIngressRecvBuffers(uint64_t count);

  // Deferred-conversion data path.
  void ProxyHandleRequest(Worker* worker, const Route& route, uint32_t payload_bytes,
                          uint64_t request_id);
  void PortalDeliver(FunctionRuntime* portal, Buffer* buffer);

  void FinishResponse(Worker* worker, uint64_t request_id, uint32_t body_bytes);

  void AutoscaleTick();

  Simulator& sim() const { return env_->sim(); }

  Env* env_;
  Node* node_;
  RoutingTable* routing_;
  DataPlane* dataplane_;
  ChainExecutor* executor_;
  Options options_;
  TcpStackModel ingress_stack_;
  TcpStackModel worker_stack_;
  BufferPool* pool_ = nullptr;  // Ingress-node pool for the tenant (kNadino).
  FifoResource* master_core_ = nullptr;
  // Proxy modes only: HTTP over TCP goes on the fabric, not through the RNIC.
  std::optional<Fabric::DirectSender> proxy_wire_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::map<std::string, Route> routes_;
  FlatIdMap<uint64_t, Pending> pending_;
  FlatIdMap<FunctionId, int> fn_to_worker_;
  std::vector<std::unique_ptr<FunctionRuntime>> portals_;
  std::map<FunctionId, NodeId> portal_nodes_;
  // One RDMA send toward a worker engine, held until its completion. An error
  // completion fails the pending request closed.
  struct InFlightSend {
    Buffer* buffer = nullptr;
    uint64_t request_id = 0;
    int worker = 0;
  };

  RbrTable rbr_;
  FlatIdMap<uint64_t, InFlightSend> in_flight_sends_;
  SimTime paused_until_ = 0;
  uint64_t next_wr_id_ = 1;
  uint64_t next_request_id_ = 1;
  // Registry-backed gateway_* counters (labels: {engine, node}) covering the
  // request lifecycle, resolved once at construction into raw-word handles
  // (metrics.h).
  CounterHandle m_requests_;
  CounterHandle m_responses_;
  CounterHandle m_http_errors_;
  CounterHandle m_scale_ups_;
  CounterHandle m_scale_downs_;
};

}  // namespace nadino

#endif  // SRC_INGRESS_GATEWAY_H_
