#include "src/baselines/baseline_dataplane.h"

#include <cassert>
#include <cstring>

#include "src/runtime/message_header.h"

namespace nadino {

namespace {
constexpr size_t kFuyaoRdmaSlots = 4096;
constexpr size_t kFuyaoSlotSize = 16 * 1024;
// FUYAO's dedicated RDMA pools get their own id space per node.
constexpr TenantId kFuyaoRdmaTenantBase = 0xFD00;
}  // namespace

BaselineDataPlane::BaselineDataPlane(Env& env, RoutingTable* routing, BaselineSystem system,
                                     TenantId tenant)
    : DataPlane(env),
      routing_(routing),
      system_(system),
      tenant_(tenant),
      skmsg_(env),
      relay_stack_(TcpStackKind::kKernel, &env.cost()),
      junction_stack_(TcpStackKind::kFstack, &env.cost()) {}

std::string BaselineDataPlane::name() const {
  switch (system_) {
    case BaselineSystem::kSpright:
      return "SPRIGHT";
    case BaselineSystem::kNightcore:
      return "NightCore";
    case BaselineSystem::kFuyao:
      return "FUYAO";
    case BaselineSystem::kJunction:
      return "Junction";
  }
  return "unknown";
}

BaselineDataPlane::NodeState* BaselineDataPlane::StateOf(NodeId node) {
  const auto it = nodes_.find(node);
  return it == nodes_.end() ? nullptr : &it->second;
}

void BaselineDataPlane::AddWorkerNode(Node* node) {
  NodeState state;
  state.node = node;
  if (system_ != BaselineSystem::kJunction) {
    state.engine_core = node->AllocateCore();
  } else {
    // Junction dedicates one full core per node solely to scheduling; it is
    // pinned at 100% without contributing to packet processing (section 4.3).
    state.engine_core = node->AllocateCore();
    state.engine_core->set_pinned(true);
  }
  if (system_ == BaselineSystem::kFuyao) {
    // The dedicated, remote-writable RDMA pool (separate from the tenant's
    // shared-memory pool — the source of FUYAO's receiver-side copies).
    state.rdma_pool =
        node->tenants().CreatePool(kFuyaoRdmaTenantBase + node->id(),
                                   "fuyao_rdma_" + std::to_string(node->id()),
                                   TenantRegistry::PoolConfig{kFuyaoRdmaSlots, kFuyaoSlotSize});
    node->rnic().mr_table().Register(state.rdma_pool, kMrRemoteWrite);
    state.connections = &node->connections();
    // The receiver-side poller busy-spins on its core.
    state.engine_core->set_pinned(true);
  } else {
    // The kernel-TCP relay and Junction put their messages on the fabric
    // themselves; FUYAO's writes go through the RNIC.
    state.wire = node->rnic().network()->fabric().AttachDirectSender();
  }
  nodes_.emplace(node->id(), std::move(state));
}

void BaselineDataPlane::Start() {
  if (system_ != BaselineSystem::kFuyao) {
    return;
  }
  for (auto& [src_id, src_state] : nodes_) {
    for (auto& [dst_id, dst_state] : nodes_) {
      if (src_id != dst_id) {
        src_state.connections->Prewarm(&dst_state.node->rnic(), tenant_, 2);
      }
    }
  }
  for (auto& [node_id, state] : nodes_) {
    NodeState* state_ptr = &state;
    state.node->rnic().SetWriteArrivalHook(
        state.rdma_pool->id(),
        [this, state_ptr](Buffer* buffer, uint32_t /*index*/) {
          FuyaoPollerDiscovery(state_ptr, buffer);
        });
    state.node->rnic().cq().SetHandler([this, owner_node = node_id](const Completion& cqe) {
      if (cqe.opcode != RdmaOpcode::kWrite) {
        return;
      }
      const auto it = in_flight_writes_.find(cqe.wr_id);
      if (it != in_flight_writes_.end()) {
        // The RNIC finished reading the source buffer: recycle it.
        it->second.second->Put(it->second.first, OwnerId::Rnic(owner_node));
        in_flight_writes_.erase(it);
      }
    });
  }
}

void BaselineDataPlane::RegisterFunction(FunctionRuntime* function) {
  functions_[function->id()] = function;
  routing_->Place(function->id(), function->node()->id());
}

bool BaselineDataPlane::Send(FunctionRuntime* src, Buffer* buffer) {
  const std::optional<MessageHeader> header = ReadMessage(*buffer);
  if (!header.has_value()) {
    m_drops_.Increment();
    return false;
  }
  m_sends_.Increment();
  // Committing resolution: baselines have no later TX re-resolve stage, so
  // the replica pick (and per-replica served accounting) lands here. Replies
  // are pinned to the primary placement — they target the caller, not
  // fresh capacity — and never advance the replica rotor.
  const NodeId dst_node = header->is_response()
                              ? routing_->NodeOf(header->dst)
                              : routing_->ResolveFor(header->dst);
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
    return SendIntraNode(src, it->second, buffer);
  }
  switch (system_) {
    case BaselineSystem::kSpright:
      return SendInterTcp(src, buffer, header->dst, dst_node);
    case BaselineSystem::kFuyao:
      return SendInterFuyao(src, buffer, header->dst, dst_node);
    case BaselineSystem::kJunction:
      return SendInterJunction(src, buffer, header->dst, dst_node);
    case BaselineSystem::kNightcore:
      // NightCore has no inter-node data plane (section 4.3: all functions
      // are placed on a single node).
      m_drops_.Increment();
      return false;
  }
  return false;
}

bool BaselineDataPlane::SendIntraNode(FunctionRuntime* src, FunctionRuntime* dst,
                                      Buffer* buffer) {
  m_intra_node_.Increment();
  BufferPool* pool = src->pool();
  if (system_ == BaselineSystem::kJunction) {
    // Junction: loopback through the per-function userspace TCP stack — a
    // serialize/deserialize copy even on-node.
    const uint64_t bytes = buffer->length;
    std::vector<std::byte> wire(buffer->payload().begin(), buffer->payload().end());
    m_payload_copies_.Increment();
    src->core()->Submit(junction_stack_.TxCost(bytes), [this, src, dst, pool, buffer,
                                                        wire = std::move(wire), bytes]() {
      pool->Put(buffer, src->owner_id());
      dst->core()->Submit(junction_stack_.RxCost(bytes) + env().cost().junction_rx_overhead,
                          [this, dst, pool, wire]() {
        Buffer* in = pool->Get(dst->owner_id());
        if (in == nullptr) {
          m_drops_.Increment();
          return;
        }
        std::memcpy(in->data.data(), wire.data(), wire.size());
        in->length = static_cast<uint32_t>(wire.size());
        m_payload_copies_.Increment();
        dst->Deliver(in);
      });
    });
    return true;
  }
  if (!pool->Transfer(buffer, src->owner_id(), dst->owner_id())) {
    m_drops_.Increment();
    return false;
  }
  const BufferDescriptor desc = pool->MakeDescriptor(*buffer, dst->id());
  if (system_ == BaselineSystem::kNightcore) {
    // NightCore's message bus: the engine dispatches every exchange.
    NodeState* state = StateOf(src->node()->id());
    skmsg_.Send(src->core(), state->engine_core, desc,
                [this, state, dst, pool](const BufferDescriptor& d) {
                  state->engine_core->Submit(
                      env().cost().dne_loop_iteration + env().cost().dne_tx_stage, [=, this]() {
                        skmsg_.Send(state->engine_core, dst->core(), d,
                                    [dst, pool](const BufferDescriptor& dd) {
                                      Buffer* b = pool->Resolve(dd);
                                      if (b != nullptr) {
                                        dst->Deliver(b);
                                      }
                                    });
                      });
                },
                /*engine_endpoint=*/true);
    return true;
  }
  // SPRIGHT / FUYAO: direct SK_MSG between sidecar-less functions.
  skmsg_.Send(src->core(), dst->core(), desc, [dst, pool](const BufferDescriptor& d) {
    Buffer* b = pool->Resolve(d);
    if (b != nullptr) {
      dst->Deliver(b);
    }
  });
  return true;
}

bool BaselineDataPlane::SendInterTcp(FunctionRuntime* src, Buffer* buffer, FunctionId dst_fn,
                                     NodeId dst_node) {
  m_inter_node_.Increment();
  NodeState* src_state = StateOf(src->node()->id());
  NodeState* dst_state = StateOf(dst_node);
  if (src_state == nullptr || dst_state == nullptr) {
    m_drops_.Increment();
    return false;
  }
  BufferPool* src_pool = src->pool();
  if (!src_pool->Transfer(buffer, src->owner_id(), engine_owner(src->node()->id()))) {
    m_drops_.Increment();
    return false;
  }
  const BufferDescriptor desc = src_pool->MakeDescriptor(*buffer, dst_fn);
  skmsg_.Send(
      src->core(), src_state->engine_core, desc,
      [this, src_state, dst_state, src_pool, dst_fn](const BufferDescriptor& d) {
        Buffer* out = src_pool->Resolve(d);
        if (out == nullptr) {
          m_drops_.Increment();
          return;
        }
        const uint64_t bytes = out->length;
        // Socket copy #1 (user -> kernel) happens inside the TX cost.
        std::vector<std::byte> wire(out->payload().begin(), out->payload().end());
        m_payload_copies_.Increment();
        src_state->engine_core->Submit(
            relay_stack_.TxCost(bytes) + relay_stack_.IrqCost(),
            [this, src_state, dst_state, src_pool, out, dst_fn, bytes,
             wire = std::move(wire)]() {
              src_pool->Put(out, engine_owner(src_state->node->id()));
              src_state->wire->Send(
                  src_state->node->id(), dst_state->node->id(), bytes + kWireHeaderBytes,
                  [this, dst_state, dst_fn, bytes, wire]() {
                    dst_state->engine_core->Submit(
                        relay_stack_.RxCost(bytes) + relay_stack_.IrqCost(),
                        [this, dst_state, dst_fn, wire]() {
                          BufferPool* dst_pool =
                              dst_state->node->tenants().PoolOfTenant(tenant_);
                          Buffer* in =
                              dst_pool->Get(engine_owner(dst_state->node->id()));
                          if (in == nullptr) {
                            m_drops_.Increment();
                            return;
                          }
                          // Socket copy #2 (kernel -> user).
                          std::memcpy(in->data.data(), wire.data(), wire.size());
                          in->length = static_cast<uint32_t>(wire.size());
                          m_payload_copies_.Increment();
                          DeliverAtNode(dst_state, in, dst_fn);
                        });
                  });
            });
      },
      /*engine_endpoint=*/true);
  return true;
}

bool BaselineDataPlane::SendInterFuyao(FunctionRuntime* src, Buffer* buffer, FunctionId dst_fn,
                                       NodeId dst_node) {
  m_inter_node_.Increment();
  NodeState* src_state = StateOf(src->node()->id());
  NodeState* dst_state = StateOf(dst_node);
  if (src_state == nullptr || dst_state == nullptr) {
    m_drops_.Increment();
    return false;
  }
  BufferPool* src_pool = src->pool();
  if (!src_pool->Transfer(buffer, src->owner_id(), engine_owner(src->node()->id()))) {
    m_drops_.Increment();
    return false;
  }
  const BufferDescriptor desc = src_pool->MakeDescriptor(*buffer, dst_fn);
  skmsg_.Send(
      src->core(), src_state->engine_core, desc,
      [this, src_state, dst_state, src_pool](const BufferDescriptor& d) {
        Buffer* out = src_pool->Resolve(d);
        if (out == nullptr) {
          m_drops_.Increment();
          return;
        }
        src_state->engine_core->Submit(env().cost().fuyao_relay_tx, [this, src_state, dst_state,
                                                               src_pool, out]() {
          const ConnectionService::Acquired acquired =
              src_state->connections->Acquire(dst_state->node->id(), tenant_);
          if (acquired.qp == 0) {
            m_drops_.Increment();
            src_pool->Put(out, engine_owner(src_state->node->id()));
            return;
          }
          const uint32_t slot =
              dst_state->next_slot++ % static_cast<uint32_t>(kFuyaoRdmaSlots);
          src_pool->Transfer(out, engine_owner(src_state->node->id()),
                             OwnerId::Rnic(src_state->node->id()));
          const uint64_t wr_id = next_wr_id_++;
          in_flight_writes_[wr_id] = {out, src_pool};
          src_state->node->rnic().PostWrite(acquired.qp, *out, dst_state->rdma_pool->id(),
                                            slot, wr_id);
        });
      },
      /*engine_endpoint=*/true);
  return true;
}

void BaselineDataPlane::FuyaoPollerDiscovery(NodeState* state, Buffer* rdma_buffer) {
  // One-sided writes are invisible to the receiver CPU: the poller discovers
  // the payload on a later poll-loop pass (mean half-interval), then copies it
  // out of the dedicated RDMA pool into the tenant's shared-memory pool.
  env().sim().Schedule(env().cost().owrc_poll_interval / 2, [this, state, rdma_buffer]() {
    state->engine_core->Submit(env().cost().owrc_poll_iteration + env().cost().fuyao_rx_handling,
                               [this, state, rdma_buffer]() {
      BufferPool* tenant_pool = state->node->tenants().PoolOfTenant(tenant_);
      Buffer* in = tenant_pool->Get(engine_owner(state->node->id()));
      if (in == nullptr) {
        m_drops_.Increment();
        rdma_buffer->length = 0;
        return;
      }
      const SimDuration copy_cost = copier_.Copy(*rdma_buffer, in, CopyLocality::kCacheCold);
      m_payload_copies_.Increment();
      rdma_buffer->length = 0;  // Release the RDMA slot.
      state->engine_core->Submit(copy_cost, [this, state, in]() {
        const std::optional<MessageHeader> header = ReadMessage(*in);
        if (!header.has_value()) {
          m_drops_.Increment();
          state->node->tenants().PoolOfTenant(tenant_)->Put(
              in, engine_owner(state->node->id()));
          return;
        }
        DeliverAtNode(state, in, header->dst);
      });
    });
  });
}

bool BaselineDataPlane::SendInterJunction(FunctionRuntime* src, Buffer* buffer,
                                          FunctionId dst_fn, NodeId dst_node) {
  m_inter_node_.Increment();
  NodeState* dst_state = StateOf(dst_node);
  const auto dst_it = functions_.find(dst_fn);
  if (dst_state == nullptr || dst_it == functions_.end()) {
    m_drops_.Increment();
    return false;
  }
  FunctionRuntime* dst = dst_it->second;
  BufferPool* src_pool = src->pool();
  const uint64_t bytes = buffer->length;
  std::vector<std::byte> wire(buffer->payload().begin(), buffer->payload().end());
  m_payload_copies_.Increment();
  const NodeId src_node = src->node()->id();
  src->core()->Submit(junction_stack_.TxCost(bytes), [this, src, src_pool, buffer, dst_state,
                                                      dst, bytes, src_node,
                                                      wire = std::move(wire)]() {
    src_pool->Put(buffer, src->owner_id());
    dst_state->wire->Send(
        src_node, dst_state->node->id(), bytes + kWireHeaderBytes,
        [this, dst_state, dst, bytes, wire]() {
          dst->core()->Submit(junction_stack_.RxCost(bytes) + env().cost().junction_rx_overhead,
                              [this, dst_state, dst, wire]() {
            BufferPool* dst_pool = dst_state->node->tenants().PoolOfTenant(tenant_);
            Buffer* in = dst_pool->Get(dst->owner_id());
            if (in == nullptr) {
              m_drops_.Increment();
              return;
            }
            std::memcpy(in->data.data(), wire.data(), wire.size());
            in->length = static_cast<uint32_t>(wire.size());
            m_payload_copies_.Increment();
            dst->Deliver(in);
          });
        });
  });
  return true;
}

void BaselineDataPlane::DeliverAtNode(NodeState* state, Buffer* buffer, FunctionId dst_fn) {
  const auto it = functions_.find(dst_fn);
  BufferPool* pool = state->node->tenants().PoolOfTenant(tenant_);
  if (it == functions_.end()) {
    m_drops_.Increment();
    pool->Put(buffer, engine_owner(state->node->id()));
    return;
  }
  FunctionRuntime* dst = it->second;
  if (!pool->Transfer(buffer, engine_owner(state->node->id()), dst->owner_id())) {
    m_drops_.Increment();
    return;
  }
  const BufferDescriptor desc = pool->MakeDescriptor(*buffer, dst_fn);
  skmsg_.Send(state->engine_core, dst->core(), desc,
              [dst, pool](const BufferDescriptor& d) {
                Buffer* b = pool->Resolve(d);
                if (b != nullptr) {
                  dst->Deliver(b);
                }
              });
}

double BaselineDataPlane::EngineUtilizationCores() const {
  double total = 0.0;
  for (const auto& [id, state] : nodes_) {
    total += state.engine_core->WindowUtilization();
  }
  return total;
}

}  // namespace nadino
