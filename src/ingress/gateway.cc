#include "src/ingress/gateway.h"

#include <cassert>

#include "src/runtime/message_header.h"

namespace nadino {

namespace {

// HTTP framing overhead added to payloads on the client<->ingress leg.
constexpr uint32_t kHttpRequestOverhead = 140;
constexpr uint32_t kHttpResponseOverhead = 110;

// Pseudo-function id spaces for gateway workers and worker-node portals.
// Application functions use small ids; these stay clear of them.
constexpr FunctionId kWorkerFnBase = 0xF0000;
constexpr FunctionId kPortalFnBase = 0xF8000;

}  // namespace

IngressGateway::IngressGateway(Env& env, Node* ingress_node, RoutingTable* routing,
                               DataPlane* dataplane, ChainExecutor* executor,
                               const Options& options)
    : env_(&env),
      node_(ingress_node),
      routing_(routing),
      dataplane_(dataplane),
      executor_(executor),
      options_(options),
      ingress_stack_(options.mode == IngressMode::kKIngress ? TcpStackKind::kKernel
                                                            : TcpStackKind::kFstack,
                     &env.cost()),
      worker_stack_(options.worker_stack, &env.cost()) {
  MetricLabels labels = MetricLabels::Node(node_->id());
  labels.engine = static_cast<int64_t>(options_.engine_id);
  MetricsRegistry& reg = env_->metrics();
  m_requests_ = reg.ResolveCounter("gateway_requests", labels);
  m_responses_ = reg.ResolveCounter("gateway_responses", labels);
  m_http_errors_ = reg.ResolveCounter("gateway_http_errors", labels);
  m_scale_ups_ = reg.ResolveCounter("gateway_scale_ups", labels);
  m_scale_downs_ = reg.ResolveCounter("gateway_scale_downs", labels);
  if (options_.mode != IngressMode::kNadino) {
    // The proxy modes carry HTTP over TCP on the fabric, not through the RNIC.
    proxy_wire_ = node_->rnic().network()->fabric().AttachDirectSender();
  }
  master_core_ = node_->AllocateCore();
  for (int i = 0; i < options_.initial_workers; ++i) {
    StartWorker(i);
  }
  if (options_.autoscale) {
    sim().Schedule(env_->cost().ingress_autoscale_period, [this]() { AutoscaleTick(); });
  }
}

void IngressGateway::StartWorker(int index) {
  if (index < static_cast<int>(workers_.size())) {
    workers_[static_cast<size_t>(index)]->active = true;
    return;
  }
  auto worker = std::make_unique<Worker>();
  worker->index = index;
  worker->core = node_->AllocateCore();
  // Busy-poll event loop (F-stack / RDMA polling); the kernel-stack ingress
  // is interrupt-driven and does not pin.
  worker->core->set_pinned(ingress_stack_.busy_polling());
  worker->self_fn = kWorkerFnBase + static_cast<FunctionId>(index);
  worker->active = true;
  routing_->Place(worker->self_fn, node_->id());
  fn_to_worker_[worker->self_fn] = index;
  worker->connections = &node_->connections();
  workers_.push_back(std::move(worker));
}

void IngressGateway::AddRoute(const std::string& path, ChainId chain,
                              FunctionId entry_function) {
  // Validate the route with the real codec: build, serialize, and re-parse a
  // representative request once, so malformed route configs fail fast.
  HttpRequest probe;
  probe.method = "POST";
  probe.target = path;
  probe.headers.push_back({"Host", "nadino.cluster"});
  probe.body = std::string(64, 'x');
  const std::string wire = HttpCodec::Serialize(probe);
  HttpRequest parsed;
  size_t consumed = 0;
  if (HttpCodec::ParseRequest(wire, &parsed, &consumed) != HttpParseResult::kOk ||
      parsed.target != path) {
    m_http_errors_.Increment();
    return;
  }
  routes_[path] = Route{chain, entry_function};
}

void IngressGateway::ConnectWorkerEngines(const std::vector<NetworkEngine*>& engines) {
  assert(options_.mode == IngressMode::kNadino);
  // Ingress-side pool for the tenant (created here when the experiment has
  // not provisioned one on the ingress node yet).
  pool_ = node_->tenants().PoolOfTenant(options_.tenant);
  if (pool_ == nullptr) {
    pool_ = node_->tenants().CreatePool(options_.tenant,
                                        "ingress_tenant_" + std::to_string(options_.tenant),
                                        TenantRegistry::PoolConfig{2048, 16 * 1024});
  }
  node_->rnic().mr_table().Register(pool_, kMrLocal);
  node_->rnic().cq().SetHandler([this](const Completion& cqe) { OnRnicCompletion(cqe); });
  PostIngressRecvBuffers(512);
  for (const auto& worker : workers_) {
    for (NetworkEngine* engine : engines) {
      worker->connections->Prewarm(&engine->node()->rnic(), options_.tenant,
                                   options_.prewarm_connections,
                                   static_cast<uint64_t>(worker->index));
    }
  }
  for (NetworkEngine* engine : engines) {
    engine->PrewarmRemoteRnic(&node_->rnic(), options_.tenant, options_.prewarm_connections);
  }
}

void IngressGateway::ConnectWorkerPortals(const std::vector<Node*>& worker_nodes) {
  assert(options_.mode != IngressMode::kNadino);
  for (Node* worker_node : worker_nodes) {
    BufferPool* pool = worker_node->tenants().PoolOfTenant(options_.tenant);
    assert(pool != nullptr && "create the tenant pool on worker nodes first");
    const FunctionId fn = kPortalFnBase + worker_node->id();
    auto portal = std::make_unique<FunctionRuntime>(fn, options_.tenant,
                                                    "portal@" + std::to_string(worker_node->id()),
                                                    worker_node, worker_node->AllocateCore(),
                                                    pool);
    portal->core()->set_pinned(worker_stack_.busy_polling());
    portal->SetHandler(
        [this](FunctionRuntime& p, Buffer* buffer) { PortalDeliver(&p, buffer); });
    dataplane_->RegisterFunction(portal.get());
    portal_nodes_[fn] = worker_node->id();
    portals_.push_back(std::move(portal));
  }
}

namespace {

// Kernel receive livelock ([72]): the interrupt-driven stack spends more CPU
// per message as the backlog grows, which is what collapses K-Ingress under
// overload (Figs. 13/14 and NightCore/FUYAO-K in Fig. 16). Busy-polling
// stacks (F-stack) have IrqCost() == 0 and are unaffected.
SimDuration LivelockIrq(const CostModel& cost, const TcpStackModel& stack,
                        const FifoResource& core) {
  const SimDuration base = stack.IrqCost();
  if (base == 0) {
    return 0;
  }
  const auto depth = static_cast<SimDuration>(core.queue_depth());
  return base + base * depth / cost.ktcp_livelock_depth_divisor;
}

}  // namespace

IngressGateway::Worker* IngressGateway::PickWorker(uint32_t client_id) {
  // RSS: hash the client's connection onto the active worker set, indexed
  // in worker order.
  const int active = active_workers();
  if (active == 0) {
    return nullptr;
  }
  const uint32_t hash = client_id * 2654435761u;
  uint32_t pick = hash % static_cast<uint32_t>(active);
  for (const auto& w : workers_) {
    if (w->active && pick-- == 0) {
      return w.get();
    }
  }
  return nullptr;
}

void IngressGateway::SubmitRequest(uint32_t client_id, const std::string& path,
                                   uint32_t payload_bytes, std::function<void()> done) {
  if (sim().now() < paused_until_) {
    // Worker processes are restarting (horizontal scaling event): the brief
    // service interruption of Fig. 14.
    sim().Schedule(paused_until_ - sim().now(),
                   [this, client_id, path, payload_bytes, done = std::move(done)]() mutable {
                     SubmitRequest(client_id, path, payload_bytes, std::move(done));
                   });
    return;
  }
  const auto route_it = routes_.find(path);
  Worker* worker = PickWorker(client_id);
  if (route_it == routes_.end() || worker == nullptr) {
    m_http_errors_.Increment();
    sim().Schedule(0, std::move(done));
    return;
  }
  // kTransport fault site: the client's HTTP/TCP crossing into the ingress
  // stack. A drop models a connection reset before the request is accepted:
  // the client observes an error (`done` still fires, keeping closed-loop
  // load generators alive) and no gateway state is created. A delay models
  // SYN retransmission / accept-queue pressure ahead of the rx cost.
  const FaultDecision transport_fault = env_->faults().Intercept(
      FaultSite::kTransport, FaultScope{options_.tenant, node_->id()});
  if (transport_fault.action == FaultAction::kDrop) {
    m_http_errors_.Increment();
    sim().Schedule(0, std::move(done));
    return;
  }
  m_requests_.Increment();
  env_->Trace(TraceCategory::kIngress, static_cast<uint32_t>(worker->index), "http_request",
              client_id, payload_bytes);
  const Route route = route_it->second;
  const uint64_t request_id = executor_->NextRequestId();
  pending_[request_id] = Pending{std::move(done), worker->index, 0};
  // Terminate (or receive, for proxy modes) the client's HTTP/TCP request.
  const uint64_t wire_bytes = payload_bytes + kHttpRequestOverhead;
  const SimDuration rx_cost =
      ingress_stack_.RxCost(wire_bytes) +
      LivelockIrq(env_->cost(), ingress_stack_, *worker->core) + env_->cost().http_parse +
      (transport_fault.action == FaultAction::kDelay ? transport_fault.delay : 0);
  worker->core->Submit(rx_cost, [this, worker, route, payload_bytes, request_id]() {
    if (options_.mode == IngressMode::kNadino) {
      NadinoHandleRequest(worker, route, payload_bytes, request_id);
    } else {
      ProxyHandleRequest(worker, route, payload_bytes, request_id);
    }
  });
}

// --- NADINO mode -------------------------------------------------------------

void IngressGateway::NadinoHandleRequest(Worker* worker, const Route& route,
                                         uint32_t payload_bytes, uint64_t request_id) {
  Buffer* buffer = pool_->Get(owner_id());
  if (buffer == nullptr) {
    m_http_errors_.Increment();
    FinishResponse(worker, request_id, 0);
    return;
  }
  MessageHeader header;
  header.chain = route.chain;
  header.src = worker->self_fn;
  header.dst = route.entry;
  header.payload_length = payload_bytes;
  header.request_id = request_id;
  if (!WriteMessage(buffer, header)) {
    pool_->Put(buffer, owner_id());
    m_http_errors_.Increment();
    FinishResponse(worker, request_id, 0);
    return;
  }
  // Resolved per request (committing pick — successive requests rotate
  // across the entry's replicas);
  // kInvalidNode = the entry is not placed.
  const NodeId dst_node = routing_->ResolveFor(route.entry);
  if (dst_node == kInvalidNode) {
    pool_->Put(buffer, owner_id());
    m_http_errors_.Increment();
    FinishResponse(worker, request_id, 0);
    return;
  }
  const uint64_t stream = static_cast<uint64_t>(worker->index);
  const ConnectionService::Acquired acquired =
      worker->connections->Acquire(dst_node, options_.tenant, stream);
  if (acquired.qp == 0) {
    if (worker->connections->CanEstablish(dst_node, options_.tenant)) {
      // Lazy policy: hold the request across the handshake; the continuation
      // resumes the post (or fails closed if the tenant departed meanwhile).
      worker->connections->EstablishThen(
          dst_node, options_.tenant, stream,
          [this, worker, buffer, route,
           request_id](const ConnectionService::Acquired& late) {
            if (late.qp == 0) {
              pool_->Put(buffer, owner_id());
              m_http_errors_.Increment();
              FinishResponse(worker, request_id, 0);
              return;
            }
            PostNadinoSend(worker, buffer, route, request_id, late);
          });
      return;
    }
    pool_->Put(buffer, owner_id());
    m_http_errors_.Increment();
    FinishResponse(worker, request_id, 0);
    return;
  }
  PostNadinoSend(worker, buffer, route, request_id, acquired);
}

void IngressGateway::PostNadinoSend(Worker* worker, Buffer* buffer, const Route& route,
                                    uint64_t request_id,
                                    const ConnectionService::Acquired& acquired) {
  auto post = [this, worker, buffer, route, request_id, qp = acquired.qp]() {
    pool_->Transfer(buffer, owner_id(), OwnerId::Rnic(node_->id()));
    const uint64_t wr_id = next_wr_id_++;
    InFlightSend& send = in_flight_sends_[wr_id];
    send.buffer = buffer;
    send.request_id = request_id;
    send.worker = worker->index;
    node_->rnic().PostSend(qp, *buffer, wr_id, route.entry);
  };
  if (acquired.control_cost > 0) {
    worker->core->Submit(acquired.control_cost, std::move(post));
  } else {
    post();
  }
}

void IngressGateway::OnRnicCompletion(const Completion& cqe) {
  if (cqe.opcode == RdmaOpcode::kSend) {
    InFlightSend send;
    if (!in_flight_sends_.Take(cqe.wr_id, &send)) {
      return;
    }
    pool_->Put(send.buffer, OwnerId::Rnic(node_->id()));
    if (cqe.status != WrStatus::kSuccess) {
      // ACK timeout / transport error: terminate the request with an HTTP
      // error rather than leave the client's pending entry hanging.
      m_http_errors_.Increment();
      FinishResponse(workers_[static_cast<size_t>(send.worker)].get(), send.request_id, 0);
    }
    return;
  }
  if (cqe.opcode != RdmaOpcode::kRecv) {
    return;
  }
  Buffer* buffer = rbr_.Consume(cqe.wr_id, cqe.tenant);
  if (buffer == nullptr || buffer != cqe.buffer) {
    return;
  }
  pool_->Transfer(buffer, OwnerId::Rnic(node_->id()), owner_id());
  // Replace the consumed receive buffer (master / core-thread work).
  master_core_->Consume(150);
  PostIngressRecvBuffers(1);
  const int* worker_index = fn_to_worker_.Find(cqe.imm);
  if (worker_index == nullptr) {
    pool_->Put(buffer, owner_id());
    return;
  }
  Worker* worker = workers_[static_cast<size_t>(*worker_index)].get();
  // The worker's busy-poll loop picks the completion up and runs the
  // RDMA->HTTP conversion.
  worker->core->Submit(env_->cost().dne_loop_iteration + env_->cost().dne_rx_stage,
                       [this, worker, buffer]() { NadinoHandleResponse(worker, buffer); });
}

void IngressGateway::NadinoHandleResponse(Worker* worker, Buffer* buffer) {
  const std::optional<MessageHeader> header = ReadMessage(*buffer);
  if (!header.has_value()) {
    m_http_errors_.Increment();
    pool_->Put(buffer, owner_id());
    return;
  }
  const uint64_t request_id = header->request_id;
  const uint32_t body_bytes = header->payload_length;
  pool_->Put(buffer, owner_id());
  FinishResponse(worker, request_id, body_bytes);
}

void IngressGateway::PostIngressRecvBuffers(uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) {
    Buffer* buffer = pool_->Get(owner_id());
    if (buffer == nullptr) {
      return;
    }
    const uint64_t wr_id = next_wr_id_++;
    if (!node_->rnic().PostRecvBuffer(pool_, buffer, owner_id(), wr_id)) {
      pool_->Put(buffer, owner_id());
      return;
    }
    rbr_.Insert(wr_id, buffer, options_.tenant);
  }
}

// --- Deferred-conversion (K-/F-Ingress) modes ---------------------------------

void IngressGateway::ProxyHandleRequest(Worker* worker, const Route& route,
                                        uint32_t payload_bytes, uint64_t request_id) {
  // Committing resolution: the proxy forwards straight to the chosen node's
  // portal, so the replica pick (and served accounting) lands here.
  const NodeId dst_node = routing_->ResolveFor(route.entry);
  const FunctionId portal_fn = kPortalFnBase + dst_node;
  const auto portal_it = portal_nodes_.find(portal_fn);
  if (portal_it == portal_nodes_.end()) {
    m_http_errors_.Increment();
    FinishResponse(worker, request_id, 0);
    return;
  }
  // NGINX proxy pass: upstream management + re-serialize toward the worker.
  const uint64_t wire_bytes = payload_bytes + kHttpRequestOverhead;
  const SimDuration proxy_cost = env_->cost().http_proxy_request + ingress_stack_.TxCost(wire_bytes);
  worker->core->Submit(proxy_cost, [this, route, payload_bytes, request_id, dst_node,
                                    portal_fn, wire_bytes]() {
    proxy_wire_->Send(
        node_->id(), dst_node, wire_bytes,
        [this, route, payload_bytes, request_id, portal_fn]() {
          // Worker-node TCP termination at the portal, then into the chain
          // via the local data plane — the "deferred conversion" double cost.
          FunctionRuntime* portal = nullptr;
          for (const auto& p : portals_) {
            if (p->id() == portal_fn) {
              portal = p.get();
              break;
            }
          }
          if (portal == nullptr) {
            return;
          }
          const uint64_t wire = payload_bytes + kHttpRequestOverhead;
          const SimDuration term_cost = worker_stack_.RxCost(wire) +
                                        LivelockIrq(env_->cost(), worker_stack_, *portal->core()) +
                                        env_->cost().http_parse;
          portal->core()->Submit(term_cost, [this, portal, route, payload_bytes,
                                             request_id]() {
            Buffer* buffer = portal->pool()->Get(portal->owner_id());
            if (buffer == nullptr) {
              m_http_errors_.Increment();
              return;
            }
            MessageHeader header;
            header.chain = route.chain;
            header.src = portal->id();
            header.dst = route.entry;
            header.payload_length = payload_bytes;
            header.request_id = request_id;
            if (!WriteMessage(buffer, header) || !dataplane_->Send(portal, buffer)) {
              portal->pool()->Put(buffer, portal->owner_id());
              m_http_errors_.Increment();
            }
          });
        },
        options_.tenant);
  });
}

void IngressGateway::PortalDeliver(FunctionRuntime* portal, Buffer* buffer) {
  const std::optional<MessageHeader> header = ReadMessage(*buffer);
  if (!header.has_value()) {
    portal->pool()->Put(buffer, portal->owner_id());
    m_http_errors_.Increment();
    return;
  }
  const uint64_t request_id = header->request_id;
  const uint32_t body_bytes = header->payload_length;
  portal->pool()->Put(buffer, portal->owner_id());
  const Pending* pending = pending_.Find(request_id);
  if (pending == nullptr) {
    m_http_errors_.Increment();
    return;
  }
  Worker* worker = workers_[static_cast<size_t>(pending->worker)].get();
  // Serialize the HTTP response back toward the ingress over TCP.
  const uint64_t wire_bytes = body_bytes + kHttpResponseOverhead;
  const SimDuration tx_cost = worker_stack_.TxCost(wire_bytes) + worker_stack_.IrqCost();
  const NodeId portal_node = portal->node()->id();
  portal->core()->Submit(tx_cost, [this, worker, request_id, body_bytes, portal_node,
                                   wire_bytes]() {
    proxy_wire_->Send(
        portal_node, node_->id(), wire_bytes,
        [this, worker, request_id, body_bytes]() {
          const uint64_t wire = body_bytes + kHttpResponseOverhead;
          const SimDuration rx_cost = ingress_stack_.RxCost(wire) +
                                      LivelockIrq(env_->cost(), ingress_stack_, *worker->core) +
                                      env_->cost().http_proxy_response;
          worker->core->Submit(rx_cost, [this, worker, request_id, body_bytes]() {
            FinishResponse(worker, request_id, body_bytes);
          });
        },
        options_.tenant);
  });
}

// --- Shared ------------------------------------------------------------------

void IngressGateway::FinishResponse(Worker* worker, uint64_t request_id,
                                    uint32_t body_bytes) {
  Pending pending;
  if (!pending_.Take(request_id, &pending)) {
    return;
  }
  const uint64_t wire_bytes = body_bytes + kHttpResponseOverhead;
  const SimDuration tx_cost = ingress_stack_.TxCost(wire_bytes) + ingress_stack_.IrqCost();
  worker->core->Submit(tx_cost, [this, worker, body_bytes,
                                 done = std::move(pending.done)]() mutable {
    m_responses_.Increment();
    env_->Trace(TraceCategory::kIngress, static_cast<uint32_t>(worker->index), "http_response",
                0, body_bytes);
    sim().Schedule(env_->cost().client_wire_one_way, std::move(done));
  });
}

int IngressGateway::active_workers() const {
  int n = 0;
  for (const auto& w : workers_) {
    n += w->active ? 1 : 0;
  }
  return n;
}

double IngressGateway::WorkerUtilizationCores() const {
  double total = 0.0;
  for (const auto& w : workers_) {
    if (w->active) {
      total += w->core->WindowUtilization();
    }
  }
  return total;
}

double IngressGateway::PortalUtilizationCores() const {
  double total = 0.0;
  for (const auto& p : portals_) {
    total += p->core()->WindowUtilization();
  }
  return total;
}

double IngressGateway::AverageUsefulUtilization() const {
  double total = 0.0;
  int n = 0;
  for (const auto& w : workers_) {
    if (w->active) {
      total += w->core->WindowUsefulUtilization();
      ++n;
    }
  }
  return n == 0 ? 0.0 : total / n;
}

void IngressGateway::ResetUtilizationWindows() {
  for (const auto& w : workers_) {
    w->core->ResetWindow();
  }
}

void IngressGateway::AutoscaleTick() {
  const double util = AverageUsefulUtilization();
  if (util > env_->cost().ingress_scale_up_util && active_workers() < options_.max_workers) {
    StartWorker(active_workers());
    // Worker-process restart briefly interrupts service (Fig. 14 dips).
    paused_until_ = sim().now() + env_->cost().ingress_worker_restart;
    m_scale_ups_.Increment();
  } else if (util < env_->cost().ingress_scale_down_util && active_workers() > 1) {
    // Drain the highest-index active worker.
    for (auto it = workers_.rbegin(); it != workers_.rend(); ++it) {
      if ((*it)->active) {
        (*it)->active = false;
        break;
      }
    }
    m_scale_downs_.Increment();
  }
  ResetUtilizationWindows();
  sim().Schedule(env_->cost().ingress_autoscale_period, [this]() { AutoscaleTick(); });
}

}  // namespace nadino
