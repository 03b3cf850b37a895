#include "src/dne/nadino_dataplane.h"

#include <algorithm>

#include "src/rdma/control_plane.h"
#include "src/runtime/message_header.h"

namespace nadino {

NadinoDataPlane::NadinoDataPlane(Env& env, RoutingTable* routing, const Options& options)
    : DataPlane(env), routing_(routing), options_(options), skmsg_(env) {}

NetworkEngine* NadinoDataPlane::AddWorkerNode(Node* node) {
  NetworkEngine::Config config = options_.engine;
  config.engine_id = next_engine_id_++;
  auto engine = std::make_unique<NetworkEngine>(env(), node, routing_, config);
  NetworkEngine* raw = engine.get();
  node->connections().Reconfigure(options_.connections);
  engines_[node->id()] = std::move(engine);
  if (options_.offload_chains) {
    wr_programs_[node->id()] =
        std::make_unique<WrProgramEngine>(env(), node, raw, routing_);
  }
  return raw;
}

WrProgramEngine* NadinoDataPlane::wr_programs(NodeId node) {
  const auto it = wr_programs_.find(node);
  return it == wr_programs_.end() ? nullptr : it->second.get();
}

SimDuration NadinoDataPlane::AttachTenant(TenantId tenant, uint32_t weight) {
  tenants_.emplace_back(tenant, weight);
  for (auto& [node, engine] : engines_) {
    engine->AttachTenant(tenant, weight);
  }
  if (options_.connections.policy != ConnectPolicy::kEager) {
    return 0;  // Lazy policies defer all connection setup to first use.
  }
  SimDuration setup = 0;
  for (auto& [node_a, engine_a] : engines_) {
    SimDuration node_setup = 0;
    for (auto& [node_b, engine_b] : engines_) {
      if (node_a != node_b) {
        node_setup += engine_a->PrewarmPeer(engine_b.get(), tenant,
                                            options_.prewarm_connections);
      }
    }
    setup = std::max(setup, node_setup);
  }
  return setup;
}

SimDuration NadinoDataPlane::DetachTenant(TenantId tenant) {
  SimDuration reclaim = 0;
  for (auto& [node, engine] : engines_) {
    reclaim = std::max(reclaim, engine->node()->connections().DestroyTenant(tenant));
  }
  for (auto it = tenants_.begin(); it != tenants_.end(); ++it) {
    if (it->first == tenant) {
      tenants_.erase(it);
      break;
    }
  }
  return reclaim;
}

void NadinoDataPlane::Start() {
  if (options_.connections.policy == ConnectPolicy::kLazyShared) {
    // Symmetric pooling: every node's service may register the remote half of
    // its connected pairs with the peer's service.
    for (auto& [node_a, engine_a] : engines_) {
      for (auto& [node_b, engine_b] : engines_) {
        if (node_a != node_b) {
          engine_a->node()->connections().LinkPeer(node_b,
                                                   &engine_b->node()->connections());
        }
      }
    }
  }
  for (auto& [node, engine] : engines_) {
    engine->Start();
  }
}

NetworkEngine* NadinoDataPlane::EngineAt(NodeId node) {
  const auto it = engines_.find(node);
  return it == engines_.end() ? nullptr : it->second.get();
}

std::string NadinoDataPlane::name() const {
  std::string base =
      options_.engine.kind == NetworkEngine::Kind::kDne ? "NADINO (DNE)" : "NADINO (CNE)";
  if (options_.engine.on_path) {
    base += " [on-path]";
  }
  if (!options_.engine.use_dwrr) {
    base += " [FCFS]";
  }
  return base;
}

void NadinoDataPlane::RegisterFunction(FunctionRuntime* function) {
  functions_[function->id()][function->node()->id()] = function;
  routing_->Place(function->id(), function->node()->id());
  NetworkEngine* engine = EngineAt(function->node()->id());
  if (engine == nullptr) {
    return;  // Endpoint on a non-worker node (ingress/client pseudo-function).
  }
  engine->RegisterLocalFunction(
      function->id(), function->core(),
      [engine, function](Buffer* buffer) {
        // Arriving inter-node payloads: ownership engine -> function, then up
        // to the application handler.
        function->pool()->Transfer(buffer, engine->owner_id(), function->owner_id());
        function->Deliver(buffer);
      },
      function->tenant());
}

bool NadinoDataPlane::Send(FunctionRuntime* src, Buffer* buffer) {
  const std::optional<MessageHeader> header = ReadMessage(*buffer);
  if (!header.has_value()) {
    m_drops_.Increment();
    return false;
  }
  m_sends_.Increment();
  // Peek (no committing resolution) to decide intra vs inter: the inter-node
  // path re-resolves — and commits — at the engine's TX stage, so resolving
  // here too would double-count one message as two picks. Responses are
  // pinned to the primary placement: a reply targets its caller, not
  // fresh capacity, so it never advances the replica rotor.
  const NodeId dst_node = header->is_response()
                              ? routing_->NodeOf(header->dst)
                              : routing_->PeekFor(header->dst);
  if (dst_node == kInvalidNode) {
    m_drops_.Increment();
    return false;
  }
  if (dst_node == src->node()->id()) {
    const auto it = functions_.find(header->dst);
    if (it == functions_.end()) {
      m_drops_.Increment();
      return false;
    }
    const auto replica_it = it->second.find(dst_node);
    if (replica_it == it->second.end()) {
      m_drops_.Increment();
      return false;
    }
    // Commit the resolution the peek previewed (replica rotor advance +
    // per-replica served accounting) now that delivery is local and final.
    if (!header->is_response()) {
      routing_->ResolveFor(header->dst);
    }
    return SendIntraNode(src, replica_it->second, buffer);
  }
  return SendInterNode(src, buffer, header->dst);
}

bool NadinoDataPlane::SendIntraNode(FunctionRuntime* src, FunctionRuntime* dst,
                                    Buffer* buffer) {
  BufferPool* pool = src->pool();
  // Token passing (section 3.5.1): exclusive ownership moves producer ->
  // consumer; the sem_post cost rides on the producer's core.
  if (!pool->Transfer(buffer, src->owner_id(), dst->owner_id())) {
    m_drops_.Increment();
    return false;
  }
  m_intra_node_.Increment();
  src->core()->Consume(env().cost().token_post_cost);
  const BufferDescriptor desc = pool->MakeDescriptor(*buffer, dst->id());
  const bool sent = skmsg_.Send(
      src->core(), dst->core(), desc,
      [dst, pool](const BufferDescriptor& d) {
        Buffer* b = pool->Resolve(d);
        if (b != nullptr) {
          dst->Deliver(b);
        }
      },
      /*engine_endpoint=*/false, src->tenant());
  if (!sent) {
    // Injected kSkMsg drop: the descriptor never reached the consumer. The
    // buffer was already handed to `dst` — move ownership back to the sender
    // ("false ⇒ caller still owns it") so the caller's recycle conserves.
    pool->Transfer(buffer, dst->owner_id(), src->owner_id());
    m_drops_.Increment();
    return false;
  }
  return true;
}

bool NadinoDataPlane::SendInterNode(FunctionRuntime* src, Buffer* buffer, FunctionId dst) {
  NetworkEngine* engine = EngineAt(src->node()->id());
  if (engine == nullptr) {
    m_drops_.Increment();
    return false;
  }
  BufferPool* pool = src->pool();
  if (!pool->Transfer(buffer, src->owner_id(), engine->owner_id())) {
    m_drops_.Increment();
    return false;
  }
  m_inter_node_.Increment();
  if (!engine->SendFromFunction(src, pool->MakeDescriptor(*buffer, dst))) {
    // IPC entry drop: the engine moved ownership back to `src`; the caller
    // still owns the buffer and recycles it.
    m_drops_.Increment();
    return false;
  }
  return true;
}

}  // namespace nadino
