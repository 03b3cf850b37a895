// The per-node RDMA control plane: one ConnectionService owns every RC
// connection a node holds, on behalf of all of its data-plane consumers (the
// DNE/CNE network engine, gateway workers, baseline data planes).
//
// Paper section 3.3 bounds *active* QPs with shadow-QP pooling because RC
// setup costs tens of milliseconds; Swift ("Rethinking RDMA Control Plane for
// Elastic Computing") is the blueprint for the rest of the lifecycle: QP
// create/modify/destroy are first-class costed verbs, establishment can be
// lazy (on first use, batched and pipelined), QPs are shared across functions
// of one tenant to the same peer, and a departing tenant's QPs are destroyed
// so their RNIC context (ICM) is reclaimed.
//
// Every pooled connection moves through an explicit lifecycle:
//
//     absent -> establishing -> active <-> shadow -> destroyed
//
//   * absent       — no connection for (peer, tenant, stream);
//   * establishing — the RC handshake (and its create/modify verbs) is in
//                    flight; acquirers queue behind it;
//   * active       — WRs may be posted; resident in the RNIC QP cache;
//   * shadow       — pooled but deactivated (RoGUE [55]): consumes no RNIC
//                    resources, reactivation is local and cheap;
//   * destroyed    — torn down (tenant departure); the QP number is retired.
//
// Setup policies (ConnectPolicy):
//   * kEager      — legacy behavior: Prewarm() at wiring time, misses are
//                   terminal. Runs under this policy are byte-identical to
//                   the pre-ConnectionService code (bench goldens).
//   * kLazy       — no prewarm; the first Acquire miss triggers an on-demand
//                   establishment (EstablishThen) and the caller's
//                   continuation runs when the handshake lands.
//   * kLazyShared — kLazy, plus: all streams of one tenant to one peer
//                   collapse into a single shared pool, and an establishment
//                   registers the remote half of each connected pair with the
//                   peer's service (LinkPeer), so the reverse direction is
//                   warm without a second handshake.

#ifndef SRC_RDMA_CONTROL_PLANE_H_
#define SRC_RDMA_CONTROL_PLANE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/core/env.h"
#include "src/core/types.h"
#include "src/rdma/rdma_engine.h"
#include "src/sim/simulator.h"

namespace nadino {

enum class ConnectPolicy : uint8_t { kEager, kLazy, kLazyShared };

enum class QpLifecycle : uint8_t { kAbsent, kEstablishing, kActive, kShadow, kDestroyed };

// Why an Acquire returned no QP. kNone means the acquire hit.
enum class AcquireMiss : uint8_t {
  kNone,
  kNoPool,        // Nothing pooled for (peer, tenant, stream).
  kEstablishing,  // Setup in flight; EstablishThen() queues behind it.
  kAllErrored,    // Pool exists but every QP is errored or beyond the bound.
};

class ConnectionService {
 public:
  struct Config {
    ConnectPolicy policy = ConnectPolicy::kEager;
    int max_active_per_peer = 8;
    uint32_t congestion_threshold = 16;
    // QPs established per on-demand setup (lazy policies): one handshake
    // round trip covers the batch; per-QP verbs serialize on the CPU.
    int establish_batch = 1;
    // Export verb/miss/QP-cache instrumentation through the MetricsRegistry.
    // Off by default: the extra metric keys would change the byte-identical
    // bench goldens recorded before this subsystem existed.
    bool instrument = false;
  };

  // Lifecycle counters stored here; Config::instrument exports them as
  // connsvc_* callbacks. The connmgr_* counters live only in the registry.
  struct Stats {
    uint64_t misses = 0;
    uint64_t establishes = 0;  // On-demand setups kicked off (lazy policies).
    uint64_t destroys = 0;     // QPs destroyed by tenant departure.
    uint64_t create_verbs = 0;
    uint64_t modify_verbs = 0;
    uint64_t destroy_verbs = 0;
  };

  // The result of Acquire: the selected QP plus the control-path time the
  // caller must charge to its own core before posting. qp == 0 means a miss;
  // `miss` says why (satisfying callers that previously special-cased 0).
  struct Acquired {
    QpNum qp = 0;
    SimDuration control_cost = 0;
    AcquireMiss miss = AcquireMiss::kNone;
  };

  using ReadyFn = std::function<void(const Acquired&)>;

  // Default-config construction is a separate overload (not `config = {}`):
  // GCC parses a nested class's member initializers only once the enclosing
  // class is complete, which rejects the braced default argument here.
  ConnectionService(Env& env, RdmaEngine* local);
  ConnectionService(Env& env, RdmaEngine* local, const Config& config);

  ConnectionService(const ConnectionService&) = delete;
  ConnectionService& operator=(const ConnectionService&) = delete;

  // Applies mutable config knobs after construction (policy, batching,
  // instrumentation). Safe at any time; existing pools keep their current
  // keys.
  void Reconfigure(const Config& config);
  const Config& config() const { return config_; }

  // Establishes `count` RC connections to `peer` for `tenant` ahead of time
  // (eager policy). Setup time elapses on the virtual clock off the data
  // path; connections are usable immediately on return — the legacy eager
  // model, preserved byte-for-byte. Returns the modeled setup latency
  // (handshake + serialized per-QP verbs) so callers that gate readiness on
  // control-plane completion (tenant churn) can charge it.
  SimDuration Prewarm(RdmaEngine* peer, TenantId tenant, int count, uint64_t stream = 0);

  // Picks the least-congested *active* connection to `peer` for `tenant`.
  // If every active connection's outstanding count exceeds the congestion
  // threshold and a shadow QP is pooled, it is activated (cost surfaced via
  // Acquired::control_cost). A miss returns qp == 0 with a typed reason,
  // counts connection_acquire_miss{tenant,node} when instrumented, and
  // traces under TraceCategory::kRdma.
  Acquired Acquire(NodeId peer, TenantId tenant, uint64_t stream = 0);

  // True when a miss for (peer, tenant) is recoverable by on-demand
  // establishment: a lazy policy is active and the peer's RNIC is reachable.
  bool CanEstablish(NodeId peer, TenantId tenant) const;

  // Lazy path: establishes a batch of connections to (peer, tenant, stream)
  // and invokes `ready` with an Acquire result when the handshake lands.
  // Concurrent callers for the same key queue behind one handshake. If the
  // key is already servable, `ready` runs synchronously.
  void EstablishThen(NodeId peer, TenantId tenant, uint64_t stream, ReadyFn ready);

  // Marks a connection idle; once the active count exceeds the configured
  // bound the surplus idle connections are deactivated (evicted from the QP
  // cache — the active -> shadow transition).
  void NoteIdle(QpNum qp);

  // Repairs a connection whose QP entered the error state: re-runs the RC
  // handshake and returns the QP to service. Errored connections are
  // excluded by Acquire() meanwhile. Re-entrant calls for a QP whose repair
  // is already in flight coalesce. The peer engine is resolved through the
  // RDMA network when not supplied.
  void Repair(QpNum qp, RdmaEngine* peer = nullptr);

  // Data-path error report (RC semantics: transport retry exhaustion kills
  // the connection, not just the WR). Under a lazy policy the connection is
  // marked errored — excluded from Acquire — and a Repair is kicked off.
  // No-op under kEager, which keeps the pre-refactor "counted not hung"
  // behavior (and the bench goldens) intact.
  void NoteTransportError(QpNum qp);

  // Tenant departure: destroys every pooled QP of `tenant` (all peers, all
  // streams), evicts their RNIC cache context, retires the QP numbers, and
  // fails any establishment waiters. Destroy verbs are costed on the virtual
  // clock; returns the modeled reclaim latency.
  SimDuration DestroyTenant(TenantId tenant);

  // Symmetric pooling (kLazyShared): lets this service register the remote
  // half of connected pairs with `peer_node`'s service.
  void LinkPeer(NodeId peer_node, ConnectionService* peer_service);

  // Adopts an already-connected QP created by a linked peer's establishment
  // (the remote half of a CreateConnectedPair), pooling it toward
  // `initiator` so the reverse direction is warm without a handshake.
  void AdoptRemote(QpNum qp, NodeId initiator, TenantId tenant);

  // Lifecycle of a QP this service has seen (kAbsent for foreign QPs).
  QpLifecycle LifecycleOf(QpNum qp) const;
  // Lifecycle of a pool key: kEstablishing while setup is in flight,
  // kActive/kShadow from the pooled entries, else kAbsent.
  QpLifecycle StateOf(NodeId peer, TenantId tenant, uint64_t stream = 0) const;

  int ActiveCount(NodeId peer, TenantId tenant, uint64_t stream = 0) const;
  int PooledCount(NodeId peer, TenantId tenant, uint64_t stream = 0) const;
  const Stats& stats() const { return local_stats_; }

 private:
  struct Pooled {
    QpNum qp = 0;
    bool active = false;
    // Service-level error mark (NoteTransportError): excluded from Acquire
    // until the in-flight Repair clears it.
    bool errored = false;
  };

  // (peer node, tenant, stream). Stream 0 is the shared pool; gateway
  // workers use nonzero streams. kLazyShared collapses every stream to 0
  // (EffectiveStream).
  using PoolKey = std::tuple<NodeId, TenantId, uint64_t>;

  struct Establishment {
    std::vector<ReadyFn> waiters;
  };

  uint64_t EffectiveStream(uint64_t stream) const {
    return config_.policy == ConnectPolicy::kLazyShared ? 0 : stream;
  }

  // Pools `qp` into `key`, honoring the active bound (shadow + cache evict
  // beyond it). Returns true when the entry went in active.
  bool PoolQp(const PoolKey& key, QpNum qp);
  void FinishEstablish(const PoolKey& key, RdmaEngine* peer_engine);
  void CountMiss(NodeId peer, TenantId tenant, AcquireMiss reason);
  void ExportInstrumentation();

  // Modeled setup latency for one establishment of `count` QPs: one
  // pipelined handshake round trip plus the serialized per-QP
  // create/modify(INIT->RTR->RTS) verb chain.
  SimDuration SetupLatency(int count) const;

  Simulator& sim() const { return env_->sim(); }

  Env* env_;
  RdmaEngine* local_;
  Config config_;
  std::map<PoolKey, std::vector<Pooled>> pools_;
  std::map<QpNum, PoolKey> qp_index_;
  std::map<PoolKey, Establishment> establishing_;
  std::map<NodeId, ConnectionService*> peer_services_;
  std::set<QpNum> destroyed_qps_;
  std::set<QpNum> repairing_;
  Stats local_stats_;  // Lifecycle extensions (registry export is opt-in).
  // Registry-backed connmgr_* counters (labels: node of the local engine) — the
  // pre-refactor ConnectionManager names, resolved eagerly so runs keep
  // byte-identical snapshots.
  CounterHandle m_connects_;
  CounterHandle m_activations_;
  CounterHandle m_deactivations_;
  CounterHandle m_acquires_;
  CounterHandle m_repairs_;
  // Instrumentation (Config::instrument): the lifecycle extensions export as
  // registry callbacks sampling local_stats_ (one source of truth, no handle
  // drift), plus the per-tenant connection_acquire_miss{tenant,node} map.
  bool instrumented_ = false;
  std::unordered_map<TenantId, CounterHandle> miss_handles_;
};

}  // namespace nadino

#endif  // SRC_RDMA_CONTROL_PLANE_H_
