// The NADINO network engine: a lightweight reverse proxy that owns the node's
// RDMA QPs on behalf of tenant functions (paper section 3.2).
//
// Two deployments share this implementation, differing only in which core
// runs the logic and which IPC carries descriptors:
//   * DNE — on a wimpy DPU core, descriptors via DOCA-Comch-like channels,
//     physically isolated from untrusted host functions;
//   * CNE — the apples-to-apples CPU variant (section 4.3), on a dedicated
//     host core, descriptors via SK_MSG (whose interrupt-driven ingestion
//     throttles it at high concurrency).
//
// Structure follows the paper: a *core thread* does control work (cross-
// processor mmap import, MR registration, Comch setup, receive-buffer
// replenishment), while the *worker* runs a non-blocking run-to-completion
// event loop over TX and RX stages. Off-path mode lets the RNIC DMA payloads
// directly between host pools and the wire; on-path mode stages every payload
// through the slow SoC DMA engine (the Fig. 11 comparison).

#ifndef SRC_DNE_NETWORK_ENGINE_H_
#define SRC_DNE_NETWORK_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>

#include "src/core/env.h"
#include "src/core/types.h"
#include "src/dne/rate_limiter.h"
#include "src/dne/rbr_table.h"
#include "src/dne/scheduler.h"
#include "src/dpu/comch.h"
#include "src/dpu/cross_mmap.h"
#include "src/mem/buffer_pool.h"
#include "src/rdma/control_plane.h"
#include "src/rdma/rdma_engine.h"
#include "src/runtime/function.h"
#include "src/runtime/node.h"
#include "src/runtime/routing_table.h"
#include "src/runtime/skmsg.h"
#include "src/sim/flat_id_map.h"

namespace nadino {

class NetworkEngine {
 public:
  enum class Kind : uint8_t { kDne, kCne };

  struct Config {
    Kind kind = Kind::kDne;
    uint32_t engine_id = 1000;  // Unique across the cluster (OwnerId::Engine).
    bool on_path = false;       // Stage payloads through the SoC DMA engine.
    bool use_dwrr = true;       // false => FCFS (the Fig. 15 baseline).
    // Extra per-operation engine cost: the knob behind "we configure the DNE
    // to sustain a maximum throughput of approximately 110K RPS" (section 4.2).
    SimDuration extra_per_op = 0;
    ComchVariant comch_variant = ComchVariant::kEvent;
    int initial_recv_buffers = 64;
  };

  // DNE core placement: the worker loop and the core thread each take one
  // wimpy DPU core (the CNE allocates a single host core for both).
  static constexpr int kWorkerCore = 0;
  static constexpr int kCoreThreadCore = 1;
  // Core-thread receive-buffer replenishment period.
  static constexpr SimDuration kReplenishPeriod = 20 * kMicrosecond;

  // Delivery callback the data plane installs per local function: transfers
  // buffer ownership engine->function and invokes FunctionRuntime::Deliver.
  using DeliverFn = std::function<void(Buffer*)>;

  NetworkEngine(Env& env, Node* node, RoutingTable* routing, const Config& config);

  NetworkEngine(const NetworkEngine&) = delete;
  NetworkEngine& operator=(const NetworkEngine&) = delete;

  Kind kind() const { return config_.kind; }
  Node* node() { return node_; }
  uint32_t engine_id() const { return config_.engine_id; }
  OwnerId owner_id() const { return OwnerId::Engine(config_.engine_id); }
  FifoResource* worker_core() { return worker_core_; }
  ComchServer* comch() { return comch_.get(); }
  ConnectionService& connections() { return *connections_; }
  TxScheduler& scheduler() { return *scheduler_; }
  RbrTable& rbr() { return rbr_; }

  // --- Setup (core-thread work) ---------------------------------------------

  // Imports the tenant's host pool through the cross-processor mmap handshake
  // (export -> Comch -> create_from_export -> RNIC registration), sets the
  // DWRR weight, and posts the initial receive buffers. For the CNE the mmap
  // step degenerates to direct access (the engine lives on the host).
  bool AttachTenant(TenantId tenant, uint32_t weight);

  // Pre-establishes RC connections to a peer engine's node for a tenant.
  // Returns the modeled control-plane setup latency (ConnectionService).
  SimDuration PrewarmPeer(NetworkEngine* peer, TenantId tenant, int connections = 2);

  // Pre-establishes RC connections to an arbitrary remote RNIC (e.g. the
  // ingress node, which runs gateway workers rather than a network engine).
  SimDuration PrewarmRemoteRnic(RdmaEngine* remote, TenantId tenant, int connections = 2);

  // Registers a local function endpoint: how the RX stage hands descriptors
  // to this function. For the DNE this also connects a Comch endpoint; for
  // the CNE it records the SK_MSG destination. `tenant` labels the Comch drop
  // accounting and scopes fault interception on this function's channel.
  void RegisterLocalFunction(FunctionId fn, FifoResource* fn_core, DeliverFn deliver,
                             TenantId tenant = kInvalidTenant);

  // Starts the replenisher (core thread) and CQ handling.
  void Start();

  // --- Data path --------------------------------------------------------------

  // TX ingestion after IPC delivery (Comch server receiver / SK_MSG target).
  // The buffer named by `desc` must already be owned by this engine.
  // `ingest_cost` is per-message handling the engine still owes (the Comch
  // channel handling its poll loop performs when it picks the message up).
  // `attempt` is 1 for first delivery; retry recovery re-enters with the
  // attempt count it is resuming (see ScheduleTxRetry).
  void IngestTx(const BufferDescriptor& desc, SimDuration ingest_cost = 0, uint32_t attempt = 1);

  // Function-side send entry: charges the function-side IPC cost and routes
  // the descriptor to IngestTx. Called by the data plane's Send(). Returns
  // false when the IPC dropped the descriptor at entry; ownership of the
  // buffer moves back to `src` in that case (the caller recycles it).
  bool SendFromFunction(FunctionRuntime* src, const BufferDescriptor& desc);

  // Engine-as-endpoint send, used when the engine itself originates traffic
  // (the Fig. 12 echo microbenchmark runs a pair of DNEs as client/server).
  bool SendFromEngine(TenantId tenant, Buffer* buffer);

  // Registers the engine itself as the delivery target for `fn` (engine
  // endpoint mode): arriving messages skip the host IPC hop.
  void SetEngineEndpoint(FunctionId fn, DeliverFn deliver);

  // Per-tenant served-message count (fairness accounting for Figs. 15/17).
  uint64_t TenantServed(TenantId tenant) const { return scheduler_->Served(tenant); }

  // Workload-specific tenant policies (section 4.2): shape a tenant's egress
  // to `rate_bps` with the given burst. Applied at engine admission.
  void SetTenantRate(TenantId tenant, double rate_bps, uint64_t burst_bytes) {
    rate_limiter_.SetRate(tenant, rate_bps, burst_bytes);
  }
  const TenantRateLimiter& rate_limiter() const { return rate_limiter_; }

 private:
  struct InFlightSend {
    Buffer* buffer = nullptr;
    BufferPool* pool = nullptr;
    QpNum qp = 0;
    TxItem item;  // Retained so an error completion can retry the send.
  };

  struct LocalEndpoint {
    FifoResource* fn_core = nullptr;
    DeliverFn deliver;
    bool engine_endpoint = false;
  };

  // Per-message Comch handling cost for the configured variant (DNE only).
  SimDuration ComchDpuCost() const;

  void PumpTx();
  void ExecuteTx(const TxItem& item);
  // Retry recovery (src/core/slo.h): when the tenant has a RetryPolicy with
  // attempts and error budget remaining, schedules a backed-off re-ingestion
  // of `item` and returns true — the buffer stays engine-owned across the
  // backoff. Returns false (after counting the terminal outcome) when the
  // caller must recycle the buffer.
  bool ScheduleTxRetry(const TxItem& item, const char* stage);
  // The post-Acquire tail of ExecuteTx: control cost, optional on-path SoC
  // DMA staging, then the RNIC post. Split out so a lazy establishment can
  // resume a send when its handshake lands.
  void FinishTx(const TxItem& item, Buffer* buffer, BufferPool* pool,
                const ConnectionService::Acquired& acquired);
  // Posts the send FinishTx parked in in_flight_ under `wr_id`.
  void PostToRnic(uint64_t wr_id);
  void OnCompletion(const Completion& cqe);
  void HandleRecvCompletion(const Completion& cqe);
  void DeliverLocal(FunctionId fn, Buffer* buffer, BufferPool* pool);
  void ReplenishTick();
  // Returns the number actually posted (pool exhaustion backpressures).
  uint64_t PostRecvBuffers(TenantId tenant, uint64_t count);

  Simulator& sim() const { return env_->sim(); }

  Env* env_;
  Node* node_;
  RoutingTable* routing_;
  Config config_;
  FifoResource* worker_core_ = nullptr;
  FifoResource* core_thread_core_ = nullptr;
  std::unique_ptr<ComchServer> comch_;          // DNE only.
  std::unique_ptr<SkMsgChannel> skmsg_;         // CNE only.
  std::unique_ptr<TxScheduler> scheduler_;
  TenantRateLimiter rate_limiter_;
  // The node-owned control plane (src/rdma/control_plane.h); the engine is
  // one of its consumers, not its owner.
  ConnectionService* connections_;
  RbrTable rbr_;
  HostMemoryExporter exporter_;
  DpuMmapTable mmap_table_;
  std::map<TenantId, BufferPool*> tenant_pools_;
  std::map<FunctionId, LocalEndpoint> endpoints_;
  FlatIdMap<uint64_t, InFlightSend> in_flight_;
  std::map<TenantId, uint64_t> replenish_debt_;  // Deferred by pool exhaustion.
  uint64_t next_wr_id_ = 1;
  bool tx_scheduled_ = false;
  bool started_ = false;
  // Registry-backed engine_* counters (labels: {engine, node}), resolved once
  // at construction into raw-word handles — the TX/RX stages bump these per
  // message.
  CounterHandle m_tx_messages_;
  CounterHandle m_rx_messages_;
  CounterHandle m_send_completions_;
  CounterHandle m_unroutable_;
  CounterHandle m_replenish_failures_;  // Tenant pool exhausted (backpressure).
  CounterHandle m_rbr_hits_;
  // Retry-path counters, resolved lazily on a tenant's first retry event so
  // unfaulted runs keep byte-identical snapshots (bench goldens), then bumped
  // through handles (no per-retry string assembly).
  struct RetryHandles {
    CounterHandle attempts;
    CounterHandle exhausted;
    CounterHandle budget_denied;
  };
  RetryHandles& RetryHandlesFor(TenantId tenant);
  std::unordered_map<TenantId, RetryHandles> retry_handles_;
};

}  // namespace nadino

#endif  // SRC_DNE_NETWORK_ENGINE_H_
