#include "src/rdma/control_plane.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace nadino {

ConnectionService::ConnectionService(Env& env, RdmaEngine* local)
    : ConnectionService(env, local, Config{}) {}

ConnectionService::ConnectionService(Env& env, RdmaEngine* local, const Config& config)
    : env_(&env), local_(local), config_(config) {
  const MetricLabels labels = MetricLabels::Node(local->node());
  MetricsRegistry& reg = env_->metrics();
  m_connects_ = reg.ResolveCounter("connmgr_connects", labels);
  m_activations_ = reg.ResolveCounter("connmgr_activations", labels);
  m_deactivations_ = reg.ResolveCounter("connmgr_deactivations", labels);
  m_acquires_ = reg.ResolveCounter("connmgr_acquires", labels);
  m_repairs_ = reg.ResolveCounter("connmgr_repairs", labels);
  if (config_.instrument) {
    ExportInstrumentation();
  }
}

void ConnectionService::Reconfigure(const Config& config) {
  config_ = config;
  if (config_.instrument) {
    ExportInstrumentation();
  }
}

void ConnectionService::ExportInstrumentation() {
  if (instrumented_) {
    return;
  }
  instrumented_ = true;
  MetricsRegistry& reg = env_->metrics();
  const MetricLabels labels = MetricLabels::Node(local_->node());
  // Lifecycle extensions: callbacks sample local_stats_ at snapshot time, so
  // a snapshot never lags the struct-local counters.
  reg.RegisterCallback("connsvc_establishes", labels,
                       [this] { return local_stats_.establishes; });
  reg.RegisterCallback("connsvc_destroys", labels, [this] { return local_stats_.destroys; });
  reg.RegisterCallback("connsvc_create_verbs", labels,
                       [this] { return local_stats_.create_verbs; });
  reg.RegisterCallback("connsvc_modify_verbs", labels,
                       [this] { return local_stats_.modify_verbs; });
  reg.RegisterCallback("connsvc_destroy_verbs", labels,
                       [this] { return local_stats_.destroy_verbs; });
  reg.RegisterCallback("connsvc_misses", labels, [this] { return local_stats_.misses; });
  // The RNIC QP-context (ICM) cache already exports rnic_qp_cache_* from
  // RdmaEngine's constructor — no second registration here.
}

SimDuration ConnectionService::SetupLatency(int count) const {
  const CostModel& cost = env_->cost();
  // One handshake round trip covers the batch (pipelined); the per-QP verb
  // chain — create, then the INIT -> RTR -> RTS modifies — serializes on the
  // issuing CPU (Swift's measured control-plane bottleneck).
  return cost.rc_connect_cost +
         count * (cost.qp_create_verb + 3 * cost.qp_modify_verb);
}

bool ConnectionService::PoolQp(const PoolKey& key, QpNum qp) {
  auto& pool = pools_[key];
  const bool active = static_cast<int>(pool.size()) < config_.max_active_per_peer;
  pool.push_back(Pooled{qp, active, false});
  qp_index_[qp] = key;
  if (active) {
    m_activations_.Increment();
  } else {
    local_->qp_cache().Evict(qp);
  }
  return active;
}

SimDuration ConnectionService::Prewarm(RdmaEngine* peer, TenantId tenant, int count,
                                       uint64_t stream) {
  const PoolKey key{peer->node(), tenant, EffectiveStream(stream)};
  for (int i = 0; i < count; ++i) {
    const auto [local_qp, remote_qp] = RdmaEngine::CreateConnectedPair(*local_, *peer, tenant);
    // Connection setup happens on the virtual clock but off the data path;
    // handshakes to the same peer pipeline rather than serialize.
    sim().Schedule(env_->cost().rc_connect_cost, [] {});
    m_connects_.Increment();
    PoolQp(key, local_qp);
    if (config_.policy == ConnectPolicy::kLazyShared) {
      const auto ps = peer_services_.find(peer->node());
      if (ps != peer_services_.end()) {
        ps->second->AdoptRemote(remote_qp, local_->node(), tenant);
      }
    }
  }
  if (count <= 0) {
    return 0;
  }
  local_stats_.create_verbs += static_cast<uint64_t>(count);
  local_stats_.modify_verbs += 3 * static_cast<uint64_t>(count);
  return SetupLatency(count);
}

ConnectionService::Acquired ConnectionService::Acquire(NodeId peer, TenantId tenant,
                                                       uint64_t stream) {
  m_acquires_.Increment();
  const PoolKey key{peer, tenant, EffectiveStream(stream)};
  const auto it = pools_.find(key);
  if (it == pools_.end() || it->second.empty()) {
    const AcquireMiss reason = establishing_.count(key) != 0 ? AcquireMiss::kEstablishing
                                                             : AcquireMiss::kNoPool;
    CountMiss(peer, tenant, reason);
    Acquired miss;
    miss.miss = reason;
    return miss;
  }
  auto& pool = it->second;
  Pooled* best = nullptr;
  uint32_t best_outstanding = std::numeric_limits<uint32_t>::max();
  Pooled* inactive = nullptr;
  int active_count = 0;
  for (Pooled& p : pool) {
    if (p.errored || local_->InError(p.qp)) {
      continue;  // Awaiting Repair().
    }
    if (!p.active) {
      if (inactive == nullptr) {
        inactive = &p;
      }
      continue;
    }
    ++active_count;
    const uint32_t outstanding = local_->Outstanding(p.qp);
    if (outstanding < best_outstanding) {
      best_outstanding = outstanding;
      best = &p;
    }
  }
  // All active connections congested: bring a shadow QP online if the active
  // bound allows (load-proportional activation, section 3.3).
  if ((best == nullptr || best_outstanding > config_.congestion_threshold) &&
      inactive != nullptr && active_count < config_.max_active_per_peer) {
    inactive->active = true;
    m_activations_.Increment();
    return {inactive->qp, env_->cost().qp_activate_cost, AcquireMiss::kNone};
  }
  if (best == nullptr) {
    // Nothing active yet (e.g. everything was deactivated): activate one.
    if (inactive != nullptr) {
      inactive->active = true;
      m_activations_.Increment();
      return {inactive->qp, env_->cost().qp_activate_cost, AcquireMiss::kNone};
    }
    CountMiss(peer, tenant, AcquireMiss::kAllErrored);
    Acquired miss;
    miss.miss = AcquireMiss::kAllErrored;
    return miss;
  }
  return {best->qp, 0, AcquireMiss::kNone};
}

void ConnectionService::CountMiss(NodeId peer, TenantId tenant, AcquireMiss reason) {
  ++local_stats_.misses;
  env_->Trace(TraceCategory::kRdma, local_->node(), "acquire_miss",
              static_cast<uint64_t>(tenant), static_cast<uint64_t>(reason));
  (void)peer;
  if (!instrumented_) {
    return;
  }
  auto it = miss_handles_.find(tenant);
  if (it == miss_handles_.end()) {
    MetricLabels labels = MetricLabels::Tenant(static_cast<int64_t>(tenant));
    labels.node = static_cast<int64_t>(local_->node());
    it = miss_handles_
             .emplace(tenant,
                      env_->metrics().ResolveCounter("connection_acquire_miss", labels))
             .first;
  }
  it->second.Increment();
}

bool ConnectionService::CanEstablish(NodeId peer, TenantId tenant) const {
  (void)tenant;
  if (config_.policy == ConnectPolicy::kEager) {
    return false;  // Eager misses stay terminal — the legacy contract.
  }
  return local_->network() != nullptr && local_->network()->EngineAt(peer) != nullptr;
}

void ConnectionService::EstablishThen(NodeId peer, TenantId tenant, uint64_t stream,
                                      ReadyFn ready) {
  const PoolKey key{peer, tenant, EffectiveStream(stream)};
  const auto pit = pools_.find(key);
  if (pit != pools_.end()) {
    for (const Pooled& p : pit->second) {
      if (!p.errored && !local_->InError(p.qp)) {
        ready(Acquire(peer, tenant, stream));
        return;
      }
    }
    // Pool exists but every QP is errored awaiting repair: fall through and
    // establish a fresh one so the caller resumes instead of being dropped.
  }
  const auto eit = establishing_.find(key);
  if (eit != establishing_.end()) {
    // Handshake already in flight for this key: queue behind it.
    eit->second.waiters.push_back(std::move(ready));
    return;
  }
  RdmaEngine* peer_engine =
      local_->network() == nullptr ? nullptr : local_->network()->EngineAt(peer);
  if (peer_engine == nullptr) {
    Acquired miss;
    miss.miss = AcquireMiss::kNoPool;
    ready(miss);
    return;
  }
  Establishment est;
  est.waiters.push_back(std::move(ready));
  establishing_.emplace(key, std::move(est));
  const int batch = std::max(1, config_.establish_batch);
  ++local_stats_.establishes;
  local_stats_.create_verbs += static_cast<uint64_t>(batch);
  local_stats_.modify_verbs += 3 * static_cast<uint64_t>(batch);
  env_->Trace(TraceCategory::kRdma, local_->node(), "establish",
              static_cast<uint64_t>(tenant), static_cast<uint64_t>(peer));
  sim().Schedule(SetupLatency(batch),
                 [this, key, peer_engine] { FinishEstablish(key, peer_engine); });
}

void ConnectionService::FinishEstablish(const PoolKey& key, RdmaEngine* peer_engine) {
  const auto eit = establishing_.find(key);
  if (eit == establishing_.end()) {
    return;  // DestroyTenant raced the handshake and already failed the waiters.
  }
  std::vector<ReadyFn> waiters = std::move(eit->second.waiters);
  establishing_.erase(eit);
  const auto [peer_node, tenant, stream] = key;
  const int batch = std::max(1, config_.establish_batch);
  for (int i = 0; i < batch; ++i) {
    const auto [local_qp, remote_qp] =
        RdmaEngine::CreateConnectedPair(*local_, *peer_engine, tenant);
    m_connects_.Increment();
    PoolQp(key, local_qp);
    if (config_.policy == ConnectPolicy::kLazyShared) {
      const auto ps = peer_services_.find(peer_node);
      if (ps != peer_services_.end()) {
        // Symmetric pooling: the remote half is a fully connected QP — hand
        // it to the peer's service so the reverse direction is warm without
        // a second handshake.
        ps->second->AdoptRemote(remote_qp, local_->node(), tenant);
      }
    }
  }
  for (ReadyFn& ready : waiters) {
    ready(Acquire(peer_node, tenant, stream));
  }
}

void ConnectionService::LinkPeer(NodeId peer_node, ConnectionService* peer_service) {
  peer_services_[peer_node] = peer_service;
}

void ConnectionService::AdoptRemote(QpNum qp, NodeId initiator, TenantId tenant) {
  if (qp_index_.count(qp) != 0 || destroyed_qps_.count(qp) != 0) {
    return;
  }
  const PoolKey key{initiator, tenant, 0};  // Shared pools collapse to stream 0.
  PoolQp(key, qp);
}

void ConnectionService::NoteIdle(QpNum qp) {
  const auto idx = qp_index_.find(qp);
  if (idx == qp_index_.end()) {
    return;
  }
  auto& pool = pools_[idx->second];
  int active_count = 0;
  for (const Pooled& p : pool) {
    active_count += p.active ? 1 : 0;
  }
  if (active_count <= config_.max_active_per_peer) {
    return;  // Within bounds; keep it warm.
  }
  for (Pooled& p : pool) {
    if (p.qp == qp && p.active && local_->Outstanding(qp) == 0) {
      p.active = false;
      local_->qp_cache().Evict(qp);
      m_deactivations_.Increment();
      return;
    }
  }
}

void ConnectionService::NoteTransportError(QpNum qp) {
  if (config_.policy == ConnectPolicy::kEager) {
    return;  // Legacy behavior: errors stay counted-not-hung, no repair cycle.
  }
  const auto idx = qp_index_.find(qp);
  if (idx == qp_index_.end()) {
    return;
  }
  for (Pooled& p : pools_[idx->second]) {
    if (p.qp == qp) {
      if (p.errored || repairing_.count(qp) != 0) {
        return;  // Repair already pending.
      }
      p.errored = true;
      Repair(qp);
      return;
    }
  }
}

void ConnectionService::Repair(QpNum qp, RdmaEngine* peer) {
  const auto idx = qp_index_.find(qp);
  if (idx == qp_index_.end()) {
    return;
  }
  if (!repairing_.insert(qp).second) {
    return;  // Coalesce re-entrant repairs of the same QP.
  }
  m_repairs_.Increment();
  if (peer == nullptr && local_->network() != nullptr) {
    peer = local_->network()->EngineAt(local_->RemoteNodeOfQp(qp));
  }
  const QpNum remote_qp = local_->RemoteQpOf(qp);
  // The handshake runs off the data path; the QP re-enters service when it
  // completes (real recovery resyncs the peer's QP state too).
  sim().Schedule(env_->cost().rc_connect_cost, [this, qp, peer, remote_qp] {
    repairing_.erase(qp);
    local_->ResetQp(qp);
    if (peer != nullptr && remote_qp != 0) {
      peer->ResetQp(remote_qp);
    }
    const auto idx2 = qp_index_.find(qp);
    if (idx2 == qp_index_.end()) {
      return;  // Destroyed while the repair was in flight.
    }
    for (Pooled& p : pools_[idx2->second]) {
      if (p.qp == qp) {
        p.errored = false;
        return;
      }
    }
  });
}

SimDuration ConnectionService::DestroyTenant(TenantId tenant) {
  uint64_t destroyed = 0;
  for (auto it = pools_.begin(); it != pools_.end();) {
    if (std::get<1>(it->first) != tenant) {
      ++it;
      continue;
    }
    for (const Pooled& p : it->second) {
      local_->qp_cache().Evict(p.qp);
      local_->DestroyQp(p.qp);
      destroyed_qps_.insert(p.qp);
      qp_index_.erase(p.qp);
      repairing_.erase(p.qp);
      ++destroyed;
    }
    it = pools_.erase(it);
  }
  // Fail establishment waiters for the departing tenant — their handshakes
  // will land on a retired key and no-op.
  for (auto it = establishing_.begin(); it != establishing_.end();) {
    if (std::get<1>(it->first) != tenant) {
      ++it;
      continue;
    }
    std::vector<ReadyFn> waiters = std::move(it->second.waiters);
    it = establishing_.erase(it);
    Acquired miss;
    miss.miss = AcquireMiss::kNoPool;
    for (ReadyFn& ready : waiters) {
      ready(miss);
    }
  }
  if (destroyed == 0) {
    return 0;
  }
  local_stats_.destroys += destroyed;
  local_stats_.destroy_verbs += destroyed;
  env_->Trace(TraceCategory::kRdma, local_->node(), "destroy_tenant",
              static_cast<uint64_t>(tenant), destroyed);
  // Destroy verbs serialize on the issuing CPU; the ICM reclaim elapses on
  // the virtual clock off the data path, like Prewarm's handshakes.
  const SimDuration latency =
      static_cast<SimDuration>(destroyed) * env_->cost().qp_destroy_verb;
  sim().Schedule(latency, [] {});
  return latency;
}

QpLifecycle ConnectionService::LifecycleOf(QpNum qp) const {
  if (destroyed_qps_.count(qp) != 0) {
    return QpLifecycle::kDestroyed;
  }
  const auto idx = qp_index_.find(qp);
  if (idx == qp_index_.end()) {
    return QpLifecycle::kAbsent;
  }
  const auto pit = pools_.find(idx->second);
  if (pit != pools_.end()) {
    for (const Pooled& p : pit->second) {
      if (p.qp == qp) {
        return p.active ? QpLifecycle::kActive : QpLifecycle::kShadow;
      }
    }
  }
  return QpLifecycle::kAbsent;
}

QpLifecycle ConnectionService::StateOf(NodeId peer, TenantId tenant, uint64_t stream) const {
  const PoolKey key{peer, tenant, EffectiveStream(stream)};
  if (establishing_.count(key) != 0) {
    return QpLifecycle::kEstablishing;
  }
  const auto pit = pools_.find(key);
  if (pit == pools_.end() || pit->second.empty()) {
    return QpLifecycle::kAbsent;
  }
  for (const Pooled& p : pit->second) {
    if (p.active) {
      return QpLifecycle::kActive;
    }
  }
  return QpLifecycle::kShadow;
}

int ConnectionService::ActiveCount(NodeId peer, TenantId tenant, uint64_t stream) const {
  const auto it = pools_.find(PoolKey{peer, tenant, EffectiveStream(stream)});
  if (it == pools_.end()) {
    return 0;
  }
  int n = 0;
  for (const Pooled& p : it->second) {
    n += p.active ? 1 : 0;
  }
  return n;
}

int ConnectionService::PooledCount(NodeId peer, TenantId tenant, uint64_t stream) const {
  const auto it = pools_.find(PoolKey{peer, tenant, EffectiveStream(stream)});
  return it == pools_.end() ? 0 : static_cast<int>(it->second.size());
}

}  // namespace nadino
