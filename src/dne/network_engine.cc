#include "src/dne/network_engine.h"

#include <cassert>
#include <utility>

#include "src/runtime/message_header.h"

namespace nadino {

NetworkEngine::NetworkEngine(Env& env, Node* node, RoutingTable* routing, const Config& config)
    : env_(&env),
      node_(node),
      routing_(routing),
      config_(config),
      connections_(&node->connections()),
      mmap_table_(&exporter_) {
  if (config_.kind == Kind::kDne) {
    assert(node_->dpu() != nullptr && "DNE requires a DPU on the node");
    worker_core_ = &node_->dpu()->core(kWorkerCore);
    core_thread_core_ = &node_->dpu()->core(kCoreThreadCore);
    // Engine-managed polling: the run-to-completion loop sweeps the Comch
    // endpoints itself, so per-message channel handling is charged inside the
    // scheduled TX/RX stages (and thus governed by the DWRR policy).
    comch_ = std::make_unique<ComchServer>(env, worker_core_,
                                           /*engine_managed_polling=*/true, node->id());
    comch_->SetReceiver([this](FunctionId /*src*/, const BufferDescriptor& desc) {
      IngestTx(desc, ComchDpuCost());
    });
  } else {
    worker_core_ = node_->AllocateCore();
    core_thread_core_ = worker_core_;  // The CNE is a single busy CPU core.
    skmsg_ = std::make_unique<SkMsgChannel>(env);
  }
  // Run-to-completion busy-poll loop: the core reads as 100% utilized.
  worker_core_->set_pinned(true);
  if (config_.use_dwrr) {
    scheduler_ = std::make_unique<DwrrScheduler>();
  } else {
    scheduler_ = std::make_unique<FcfsScheduler>();
  }
  MetricLabels labels = MetricLabels::Node(node_->id());
  labels.engine = static_cast<int64_t>(config_.engine_id);
  MetricsRegistry& reg = env_->metrics();
  m_tx_messages_ = reg.ResolveCounter("engine_tx_messages", labels);
  m_rx_messages_ = reg.ResolveCounter("engine_rx_messages", labels);
  m_send_completions_ = reg.ResolveCounter("engine_send_completions", labels);
  m_unroutable_ = reg.ResolveCounter("engine_unroutable", labels);
  m_replenish_failures_ = reg.ResolveCounter("engine_replenish_failures", labels);
  m_rbr_hits_ = reg.ResolveCounter("engine_rbr_hits", labels);
}

bool NetworkEngine::AttachTenant(TenantId tenant, uint32_t weight) {
  BufferPool* pool = node_->tenants().PoolOfTenant(tenant);
  if (pool == nullptr) {
    return false;
  }
  if (config_.kind == Kind::kDne) {
    // Cross-processor mmap handshake (section 3.4.2): the host agent exports,
    // the descriptor crosses the Comch, the DNE imports and registers with
    // the RNIC. NADINO pools carry *no* remote-access rights: all inter-node
    // traffic is two-sided, so peers can never write into this pool directly.
    const MmapExportDescriptor export_desc = exporter_.Export(pool, true, true);
    if (!mmap_table_.CreateFromExport(export_desc, pool)) {
      return false;
    }
    if (!mmap_table_.RegisterWithRnic(pool->id(), &node_->rnic(), kMrLocal)) {
      return false;
    }
  } else {
    node_->rnic().mr_table().Register(pool, kMrLocal);
  }
  tenant_pools_[tenant] = pool;
  scheduler_->SetWeight(tenant, weight);
  // Fairness accounting (Figs. 15/17): per-tenant served counts come from the
  // registry, sampled off the scheduler at snapshot time.
  MetricLabels labels = MetricLabels::Node(node_->id());
  labels.engine = static_cast<int64_t>(config_.engine_id);
  labels.tenant = static_cast<int64_t>(tenant);
  env_->metrics().RegisterCallback("engine_tenant_served", labels,
                                   [this, tenant] { return scheduler_->Served(tenant); });
  PostRecvBuffers(tenant, static_cast<uint64_t>(config_.initial_recv_buffers));
  return true;
}

SimDuration NetworkEngine::PrewarmPeer(NetworkEngine* peer, TenantId tenant,
                                       int num_connections) {
  return connections_->Prewarm(&peer->node()->rnic(), tenant, num_connections);
}

SimDuration NetworkEngine::PrewarmRemoteRnic(RdmaEngine* remote, TenantId tenant,
                                             int num_connections) {
  return connections_->Prewarm(remote, tenant, num_connections);
}

void NetworkEngine::RegisterLocalFunction(FunctionId fn, FifoResource* fn_core,
                                          DeliverFn deliver, TenantId tenant) {
  endpoints_[fn] = LocalEndpoint{fn_core, std::move(deliver), false};
  if (config_.kind == Kind::kDne) {
    comch_->ConnectEndpoint(
        fn, config_.comch_variant, fn_core,
        [this, fn](const BufferDescriptor& desc) {
          const auto it = endpoints_.find(fn);
          if (it == endpoints_.end()) {
            return;
          }
          BufferPool* pool = node_->tenants().PoolById(desc.pool);
          Buffer* buffer = pool == nullptr ? nullptr : pool->Resolve(desc);
          if (buffer != nullptr && it->second.deliver) {
            it->second.deliver(buffer);
          }
        },
        tenant);
  }
}

void NetworkEngine::SetEngineEndpoint(FunctionId fn, DeliverFn deliver) {
  endpoints_[fn] = LocalEndpoint{nullptr, std::move(deliver), true};
}

void NetworkEngine::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  node_->rnic().cq().SetHandler([this](const Completion& cqe) { OnCompletion(cqe); });
  sim().Schedule(kReplenishPeriod, [this]() { ReplenishTick(); });
}

bool NetworkEngine::SendFromFunction(FunctionRuntime* src, const BufferDescriptor& desc) {
  bool sent;
  if (config_.kind == Kind::kDne) {
    sent = comch_->SendToDpu(src->id(), desc);
  } else {
    // CNE ingestion over SK_MSG: the shared engine pays the per-message
    // interrupt cost — the mechanism that throttles it at high concurrency.
    sent = skmsg_->Send(src->core(), worker_core_, desc,
                        [this](const BufferDescriptor& d) { IngestTx(d); },
                        /*engine_endpoint=*/true, src->tenant());
  }
  if (!sent) {
    // Dropped at the IPC entry (unconnected endpoint / injected fault). The
    // buffer was already handed to this engine — return ownership to the
    // sender so the data plane's "false ⇒ caller still owns it" contract
    // holds and the caller's recycle conserves the pool.
    BufferPool* pool = node_->tenants().PoolById(desc.pool);
    Buffer* buffer = pool == nullptr ? nullptr : pool->Resolve(desc);
    if (buffer != nullptr) {
      pool->Transfer(buffer, owner_id(), src->owner_id());
    }
  }
  return sent;
}

bool NetworkEngine::SendFromEngine(TenantId tenant, Buffer* buffer) {
  const auto it = tenant_pools_.find(tenant);
  if (it == tenant_pools_.end() || buffer == nullptr) {
    return false;
  }
  const std::optional<MessageHeader> header = ReadMessage(*buffer);
  if (!header.has_value()) {
    return false;
  }
  IngestTx(it->second->MakeDescriptor(*buffer, header->dst));
  return true;
}

SimDuration NetworkEngine::ComchDpuCost() const {
  return comch_ ? comch_->DpuSideCost(config_.comch_variant) : 0;
}

void NetworkEngine::IngestTx(const BufferDescriptor& desc, SimDuration ingest_cost,
                             uint32_t attempt) {
  BufferPool* pool = node_->tenants().PoolById(desc.pool);
  Buffer* buffer = pool == nullptr ? nullptr : pool->Resolve(desc);
  if (buffer == nullptr || !(buffer->owner == owner_id())) {
    m_unroutable_.Increment();
    return;
  }
  TxItem item;
  item.tenant = pool->tenant();
  item.desc = desc;
  item.bytes = buffer->length + static_cast<uint32_t>(kWireHeaderBytes);
  item.ingest_cost = ingest_cost;
  item.attempt = attempt;
  // kDneTx fault site: the descriptor entering the TX pipeline. Runs after
  // the ownership check so a drop can recycle the buffer this engine
  // provably owns; corruption flips payload bytes the header checksum
  // downstream must catch.
  const FaultDecision fault = env_->faults().Intercept(
      FaultSite::kDneTx, FaultScope{pool->tenant(), node_->id()}, buffer->payload().data(),
      buffer->payload().size());
  if (fault.action == FaultAction::kDrop) {
    // Injected TX drop: with a retry policy armed this becomes a timed
    // re-ingestion (the buffer stays engine-owned across the backoff)
    // instead of a terminal loss the chain above would never recover from.
    if (ScheduleTxRetry(item, "tx_drop_retry")) {
      return;
    }
    pool->Put(buffer, owner_id());
    return;
  }
  // Tenant shaping policy (token bucket): messages over the tenant's rate are
  // held back at admission; fairness scheduling applies below the caps. An
  // injected kDelay stretches the same admission path.
  const SimDuration shaping_delay =
      rate_limiter_.AdmissionDelay(item.tenant, item.bytes, sim().now()) +
      (fault.action == FaultAction::kDelay ? fault.delay : 0);
  if (shaping_delay > 0) {
    sim().Schedule(shaping_delay, [this, item = std::move(item)]() mutable {
      scheduler_->Enqueue(std::move(item));
      PumpTx();
    });
    return;
  }
  scheduler_->Enqueue(std::move(item));
  PumpTx();
}

void NetworkEngine::PumpTx() {
  if (tx_scheduled_) {
    return;
  }
  TxItem item;
  if (!scheduler_->Dequeue(&item)) {
    return;
  }
  tx_scheduled_ = true;
  const SimDuration cost = env_->cost().dne_loop_iteration + env_->cost().dne_sched_op +
                           env_->cost().dne_tx_stage + config_.extra_per_op + item.ingest_cost;
  worker_core_->Submit(cost, [this, item]() {
    ExecuteTx(item);
    tx_scheduled_ = false;
    PumpTx();
  });
}

void NetworkEngine::ExecuteTx(const TxItem& item) {
  BufferPool* pool = node_->tenants().PoolById(item.desc.pool);
  Buffer* buffer = pool == nullptr ? nullptr : pool->Resolve(item.desc);
  if (buffer == nullptr) {
    m_unroutable_.Increment();
    return;
  }
  // The committing resolution point for inter-node traffic: one message, one
  // replica pick (NadinoDataPlane::Send only peeked). With replicas the pick
  // may land back on this node — the short-circuit below handles it.
  // Responses are pinned to the primary placement instead of spread: a
  // reply targets the caller, not fresh capacity, and must not advance the
  // replica rotor or count as a served pick.
  const std::optional<MessageHeader> header = ReadMessage(*buffer);
  const bool is_response = header.has_value() && header->is_response();
  const NodeId dst_node = is_response
                              ? routing_->NodeOf(item.desc.dst_function)
                              : routing_->ResolveFor(item.desc.dst_function);
  if (dst_node == kInvalidNode) {
    m_unroutable_.Increment();
    pool->Put(buffer, owner_id());
    return;
  }
  if (dst_node == node_->id()) {
    // Destination is co-located after all (e.g. rescheduled function):
    // short-circuit through the local delivery path.
    DeliverLocal(item.desc.dst_function, buffer, pool);
    return;
  }
  const ConnectionService::Acquired acquired = connections_->Acquire(dst_node, item.tenant);
  if (acquired.qp == 0) {
    if (connections_->CanEstablish(dst_node, item.tenant)) {
      // Lazy policy: first use of (peer, tenant) — establish on demand and
      // resume this send when the handshake lands. The buffer stays
      // engine-owned across the setup; a failed establishment recycles it
      // ("counted not hung").
      connections_->EstablishThen(
          dst_node, item.tenant, /*stream=*/0,
          [this, item, buffer, pool](const ConnectionService::Acquired& late) {
            if (late.qp == 0) {
              m_unroutable_.Increment();
              pool->Put(buffer, owner_id());
              return;
            }
            FinishTx(item, buffer, pool, late);
          });
      return;
    }
    m_unroutable_.Increment();
    pool->Put(buffer, owner_id());
    return;
  }
  FinishTx(item, buffer, pool, acquired);
}

void NetworkEngine::FinishTx(const TxItem& item, Buffer* buffer, BufferPool* pool,
                             const ConnectionService::Acquired& acquired) {
  // The send is parked under its wr_id now, so the stages below carry that
  // handle instead of the item.
  const uint64_t wr_id = next_wr_id_++;
  in_flight_[wr_id] = InFlightSend{buffer, pool, acquired.qp, item};
  auto maybe_dma = [this, wr_id]() {
    if (!config_.on_path) {
      PostToRnic(wr_id);
      return;
    }
    // On-path: the payload is staged host -> SoC memory through the slow
    // SoC DMA engine before the RNIC can transmit it (Fig. 2 (1)).
    const InFlightSend& send = *in_flight_.Find(wr_id);
    node_->dpu()->SocDmaTransfer(
        send.buffer->length,
        [this, wr_id](bool ok) {
          if (!ok) {
            // Injected kSocDma drop: the staging copy failed before the
            // RNIC ever saw the buffer — recycle it.
            InFlightSend failed;
            in_flight_.Take(wr_id, &failed);
            failed.pool->Put(failed.buffer, owner_id());
            return;
          }
          PostToRnic(wr_id);
        },
        send.item.tenant, send.buffer->payload().data(), send.buffer->payload().size());
  };
  if (acquired.control_cost > 0) {
    worker_core_->Submit(acquired.control_cost, std::move(maybe_dma));
  } else {
    maybe_dma();
  }
}

void NetworkEngine::PostToRnic(uint64_t wr_id) {
  // Copied out of the map: its entries move on every insert and erase.
  const InFlightSend send = *in_flight_.Find(wr_id);
  if (!send.pool->Transfer(send.buffer, owner_id(), OwnerId::Rnic(node_->id()))) {
    in_flight_.Erase(wr_id);
    m_unroutable_.Increment();
    return;
  }
  node_->rnic().PostSend(send.qp, *send.buffer, wr_id, send.item.desc.dst_function);
  m_tx_messages_.Increment();
  env_->Trace(TraceCategory::kEngine, config_.engine_id, "tx_post", send.item.desc.dst_function,
              send.buffer->length);
}

void NetworkEngine::OnCompletion(const Completion& cqe) {
  if (cqe.opcode == RdmaOpcode::kRecv) {
    const SimDuration cost =
        env_->cost().dne_loop_iteration + env_->cost().dne_rx_stage + config_.extra_per_op;
    worker_core_->Submit(cost, [this, cqe]() { HandleRecvCompletion(cqe); });
    return;
  }
  if (cqe.opcode == RdmaOpcode::kSend) {
    worker_core_->Submit(env_->cost().dne_loop_iteration, [this, cqe]() {
      InFlightSend inflight;
      if (!in_flight_.Take(cqe.wr_id, &inflight)) {
        return;
      }
      connections_->NoteIdle(inflight.qp);
      m_send_completions_.Increment();
      if (cqe.status != WrStatus::kSuccess) {
        // RC semantics: a transport error kills the connection. Under lazy
        // policies the service marks it errored and kicks off a repair
        // handshake (no-op under the legacy eager policy).
        connections_->NoteTransportError(inflight.qp);
        // Transport NACK ("counted not hung": an injected RNIC loss completes
        // the WR with an error while the QP stays usable). Reclaim the buffer
        // and re-enter the TX pipeline after backoff when the tenant's retry
        // policy allows; recycle terminally otherwise.
        inflight.pool->Transfer(inflight.buffer, OwnerId::Rnic(node_->id()), owner_id());
        if (ScheduleTxRetry(inflight.item, "tx_nack_retry")) {
          return;
        }
        inflight.pool->Put(inflight.buffer, owner_id());
        return;
      }
      // The RNIC is done reading the source buffer: recycle it to the pool.
      inflight.pool->Put(inflight.buffer, OwnerId::Rnic(node_->id()));
    });
  }
}

NetworkEngine::RetryHandles& NetworkEngine::RetryHandlesFor(TenantId tenant) {
  const auto it = retry_handles_.find(tenant);
  if (it != retry_handles_.end()) {
    return it->second;
  }
  // Created lazily on the tenant's first retry event so unfaulted runs keep
  // byte-identical snapshots (bench goldens); resolved once, bumped through
  // raw-word handles on every later retry.
  const MetricLabels labels = MetricLabels::Tenant(static_cast<int64_t>(tenant));
  MetricsRegistry& reg = env_->metrics();
  RetryHandles handles;
  handles.attempts = reg.ResolveCounter("retry_attempts", labels);
  handles.exhausted = reg.ResolveCounter("retry_exhausted", labels);
  handles.budget_denied = reg.ResolveCounter("retry_budget_denied", labels);
  return retry_handles_.emplace(tenant, handles).first->second;
}

bool NetworkEngine::ScheduleTxRetry(const TxItem& item, const char* stage) {
  SloRegistry& slos = env_->slos();
  const RetryPolicy* policy = slos.RetryPolicyOf(item.tenant);
  if (policy == nullptr) {
    return false;  // No policy: terminal, exactly the pre-SLO behaviour.
  }
  SloObject* slo = slos.OfTenant(item.tenant);
  RetryHandles& retry = RetryHandlesFor(item.tenant);
  if (item.attempt >= policy->max_attempts) {
    retry.exhausted.Increment();
    env_->Trace(TraceCategory::kEngine, config_.engine_id, "retry_exhausted", item.tenant,
                item.attempt);
    if (slo != nullptr) {
      slo->RecordError();
    }
    return false;
  }
  if (slo != nullptr && !slo->TryConsumeRetryToken()) {
    // Retry budget capped by the error budget: a tenant that burned its
    // window cannot amplify load with further retries.
    retry.budget_denied.Increment();
    env_->Trace(TraceCategory::kEngine, config_.engine_id, "retry_budget_denied", item.tenant,
                item.attempt);
    return false;
  }
  const SimDuration backoff = policy->BackoffFor(item.attempt, slos.jitter_rng());
  retry.attempts.Increment();
  env_->Trace(TraceCategory::kEngine, config_.engine_id, stage, item.tenant, item.attempt);
  sim().Schedule(backoff, [this, desc = item.desc, attempt = item.attempt + 1]() {
    IngestTx(desc, 0, attempt);
  });
  return true;
}

void NetworkEngine::HandleRecvCompletion(const Completion& cqe) {
  Buffer* registered = rbr_.Consume(cqe.wr_id, cqe.tenant);
  if (registered == nullptr || registered != cqe.buffer) {
    m_unroutable_.Increment();
    return;
  }
  m_rbr_hits_.Increment();
  m_rx_messages_.Increment();
  env_->Trace(TraceCategory::kEngine, config_.engine_id, "rx_deliver", cqe.imm, cqe.byte_len);
  const auto pool_it = tenant_pools_.find(cqe.tenant);
  if (pool_it == tenant_pools_.end()) {
    m_unroutable_.Increment();
    return;
  }
  BufferPool* pool = pool_it->second;
  pool->Transfer(registered, OwnerId::Rnic(node_->id()), owner_id());
  // kDneRx fault site: the received message leaving the RNIC for local
  // delivery. Intercepted after the ownership transfer so a drop recycles a
  // buffer this engine owns; corruption hits the received payload before any
  // checksum validation downstream.
  const FaultDecision fault = env_->faults().Intercept(
      FaultSite::kDneRx, FaultScope{cqe.tenant, node_->id()}, registered->payload().data(),
      registered->payload().size());
  if (fault.action == FaultAction::kDrop) {
    pool->Put(registered, owner_id());
    return;
  }
  const FunctionId dst = cqe.imm;
  auto deliver = [this, dst, registered, pool, tenant = cqe.tenant]() {
    if (config_.on_path) {
      // On-path: the RNIC deposited into SoC memory; stage SoC -> host pool.
      node_->dpu()->SocDmaTransfer(
          registered->length,
          [this, dst, registered, pool](bool ok) {
            if (!ok) {
              pool->Put(registered, owner_id());
              return;
            }
            DeliverLocal(dst, registered, pool);
          },
          tenant, registered->payload().data(), registered->payload().size());
      return;
    }
    DeliverLocal(dst, registered, pool);
  };
  if (fault.action == FaultAction::kDelay) {
    sim().Schedule(fault.delay, deliver);
    return;
  }
  deliver();
}

void NetworkEngine::DeliverLocal(FunctionId fn, Buffer* buffer, BufferPool* pool) {
  const auto it = endpoints_.find(fn);
  if (it == endpoints_.end()) {
    m_unroutable_.Increment();
    pool->Put(buffer, owner_id());
    return;
  }
  if (it->second.engine_endpoint) {
    it->second.deliver(buffer);
    return;
  }
  const BufferDescriptor desc = pool->MakeDescriptor(*buffer, fn);
  if (config_.kind == Kind::kDne) {
    // Charge the Comch channel handling on the worker loop, then push the
    // descriptor toward the host function. An entry drop (unconnected endpoint /
    // injected fault) leaves the buffer engine-owned: recycle it.
    worker_core_->Submit(ComchDpuCost(), [this, fn, desc, buffer, pool]() {
      if (!comch_->SendToHost(fn, desc)) {
        pool->Put(buffer, owner_id());
      }
    });
    return;
  }
  const bool sent = skmsg_->Send(worker_core_, it->second.fn_core, desc,
                                 [this, fn](const BufferDescriptor& d) {
                                   const auto ep = endpoints_.find(fn);
                                   if (ep == endpoints_.end()) {
                                     return;
                                   }
                                   BufferPool* p = node_->tenants().PoolById(d.pool);
                                   Buffer* b = p == nullptr ? nullptr : p->Resolve(d);
                                   if (b != nullptr && ep->second.deliver) {
                                     ep->second.deliver(b);
                                   }
                                 },
                                 /*engine_endpoint=*/false, pool->tenant());
  if (!sent) {
    pool->Put(buffer, owner_id());
  }
}

void NetworkEngine::ReplenishTick() {
  // Core-thread work (section 3.5.2): post as many fresh receive buffers as
  // the RX stage consumed since the last tick, per tenant.
  SimDuration work = 300;
  for (auto& [tenant, pool] : tenant_pools_) {
    const uint64_t due = rbr_.TakeConsumedCount(tenant) + replenish_debt_[tenant];
    if (due > 0) {
      const uint64_t posted = PostRecvBuffers(tenant, due);
      work += static_cast<SimDuration>(150 * posted);
      replenish_debt_[tenant] = due - posted;  // Retry the rest next tick.
    }
  }
  core_thread_core_->Consume(work);
  sim().Schedule(kReplenishPeriod, [this]() { ReplenishTick(); });
}

uint64_t NetworkEngine::PostRecvBuffers(TenantId tenant, uint64_t count) {
  BufferPool* pool = tenant_pools_[tenant];
  for (uint64_t i = 0; i < count; ++i) {
    Buffer* buffer = pool->Get(owner_id());
    if (buffer == nullptr) {
      m_replenish_failures_.Increment();
      return i;
    }
    const uint64_t wr_id = next_wr_id_++;
    if (!node_->rnic().PostRecvBuffer(pool, buffer, owner_id(), wr_id)) {
      pool->Put(buffer, owner_id());
      m_replenish_failures_.Increment();
      return i;
    }
    rbr_.Insert(wr_id, buffer, tenant);
  }
  return count;
}

}  // namespace nadino
