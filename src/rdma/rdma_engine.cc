#include "src/rdma/rdma_engine.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

namespace nadino {

PacketRef::PacketRef(const PacketRef& other) {
  if (other.slot_ == nullptr) {
    return;
  }
  PacketRef copy = other.slot_->pool->Acquire();
  copy.slot_->packet = other.slot_->packet;  // Reuses the slot's capacity.
  slot_ = std::exchange(copy.slot_, nullptr);
}

PacketRef PacketPool::Acquire() {
  PacketRef::Slot* slot = free_;
  if (slot != nullptr) {
    free_ = slot->next_free;
    // Reset every field but keep the payload's capacity.
    std::vector<std::byte> payload = std::move(slot->packet.payload);
    payload.clear();
    slot->packet = RdmaPacket{};
    slot->packet.payload = std::move(payload);
  } else {
    slot = &slots_.emplace_back();
    slot->pool = this;
  }
  ++live_;
  return PacketRef(slot);
}

void PacketPool::Retire() {
  retired_ = true;
  if (live_ == 0) {
    delete this;
  }
}

void RdmaNetwork::Attach(RdmaEngine* engine) {
  fabric_.AttachNode(engine->node());
  engines_[engine->node()] = engine;
}

RdmaEngine* RdmaNetwork::EngineAt(NodeId node) const {
  const auto it = engines_.find(node);
  return it == engines_.end() ? nullptr : it->second;
}

RdmaEngine::RdmaEngine(Env& env, NodeId node, RdmaNetwork* network)
    : env_(&env),
      node_(node),
      network_(network),
      qp_cache_(env.cost().rnic_qp_cache_entries) {
  network_->Attach(this);
  MetricsRegistry& m = env_->metrics();
  const MetricLabels labels = MetricLabels::Node(node_);
  m_sends_ = m.ResolveCounter("rnic_sends", labels);
  m_writes_ = m.ResolveCounter("rnic_writes", labels);
  m_recv_completions_ = m.ResolveCounter("rnic_recv_completions", labels);
  m_rnr_events_ = m.ResolveCounter("rnic_rnr_events", labels);
  m_rnr_failures_ = m.ResolveCounter("rnic_rnr_failures", labels);
  m_bytes_tx_ = m.ResolveCounter("rnic_bytes_tx", labels);
  m_bytes_rx_ = m.ResolveCounter("rnic_bytes_rx", labels);
  m_oblivious_overwrites_ = m.ResolveCounter("rnic_oblivious_overwrites", labels);
  // RNIC ICM-cache behaviour surfaces through the registry too (sections
  // 2.1/3.3): sampled at snapshot time from the cache's own counters.
  m.RegisterCallback("rnic_qp_cache_hits", labels, [this]() { return qp_cache_.hits(); });
  m.RegisterCallback("rnic_qp_cache_misses", labels, [this]() { return qp_cache_.misses(); });
  m.RegisterCallback("rnic_qp_cache_resident", labels,
                     [this]() { return static_cast<uint64_t>(qp_cache_.resident()); });
}

CounterHandle& RdmaEngine::AckTimeoutHandleFor(TenantId tenant) {
  const auto it = ack_timeout_handles_.find(tenant);
  if (it != ack_timeout_handles_.end()) {
    return it->second;
  }
  // Created lazily on the first timeout so unfaulted runs keep byte-identical
  // snapshots; resolved once per (node, tenant), bumped through the handle.
  MetricLabels labels = MetricLabels::Node(node_);
  if (tenant != kInvalidTenant) {
    labels.tenant = static_cast<int64_t>(tenant);
  }
  const CounterHandle handle = env_->metrics().ResolveCounter("rnic_ack_timeouts", labels);
  return ack_timeout_handles_.emplace(tenant, handle).first->second;
}

QpNum RdmaEngine::CreateQp(TenantId tenant) {
  // Globally unique QP numbers (node in the high bits), as on real fabrics.
  const QpNum qp = (node_ << 20) | next_qp_++;
  qps_[qp] = RcQp{qp, tenant, kInvalidNode, 0, false, 0};
  return qp;
}

bool RdmaEngine::Connect(QpNum local_qp, NodeId remote_node, QpNum remote_qp) {
  RcQp* qp = FindQp(local_qp);
  if (qp == nullptr || network_->EngineAt(remote_node) == nullptr) {
    return false;
  }
  qp->remote_node = remote_node;
  qp->remote_qp = remote_qp;
  qp->connected = true;
  return true;
}

std::pair<QpNum, QpNum> RdmaEngine::CreateConnectedPair(RdmaEngine& a, RdmaEngine& b,
                                                        TenantId tenant) {
  const QpNum qa = a.CreateQp(tenant);
  const QpNum qb = b.CreateQp(tenant);
  a.Connect(qa, b.node(), qb);
  b.Connect(qb, a.node(), qa);
  return {qa, qb};
}

SharedReceiveQueue& RdmaEngine::SrqOfTenant(TenantId tenant) {
  auto& slot = srqs_[tenant];
  if (!slot) {
    slot = std::make_unique<SharedReceiveQueue>(tenant);
  }
  return *slot;
}

bool RdmaEngine::PostRecvBuffer(BufferPool* pool, Buffer* buffer, OwnerId from,
                                uint64_t wr_id) {
  if (pool == nullptr || buffer == nullptr) {
    return false;
  }
  if (!pool->Transfer(buffer, from, OwnerId::Rnic(node_))) {
    return false;
  }
  if (!SrqOfTenant(pool->tenant()).Post(buffer, wr_id, node_)) {
    // Roll the ownership back so the caller still holds the buffer.
    pool->Transfer(buffer, OwnerId::Rnic(node_), from);
    return false;
  }
  return true;
}

RdmaEngine::RcQp* RdmaEngine::FindQp(QpNum qp) {
  const auto it = qps_.find(qp);
  return it == qps_.end() ? nullptr : &it->second;
}

const RdmaEngine::RcQp* RdmaEngine::FindQp(QpNum qp) const {
  const auto it = qps_.find(qp);
  return it == qps_.end() ? nullptr : &it->second;
}

uint32_t RdmaEngine::Outstanding(QpNum qp) const {
  const RcQp* q = FindQp(qp);
  return q == nullptr ? 0 : q->outstanding;
}

bool RdmaEngine::InError(QpNum qp) const {
  const RcQp* q = FindQp(qp);
  return q != nullptr && q->in_error;
}

void RdmaEngine::ResetQp(QpNum qp) {
  RcQp* q = FindQp(qp);
  if (q != nullptr) {
    q->in_error = false;
    q->outstanding = 0;
  }
}

NodeId RdmaEngine::RemoteNodeOfQp(QpNum qp) const {
  const RcQp* q = FindQp(qp);
  return q == nullptr ? kInvalidNode : q->remote_node;
}

QpNum RdmaEngine::RemoteQpOf(QpNum qp) const {
  const RcQp* q = FindQp(qp);
  return q == nullptr ? 0 : q->remote_qp;
}

void RdmaEngine::DestroyQp(QpNum qp) {
  qp_cache_.Evict(qp);
  qps_.erase(qp);
}

uint64_t RdmaEngine::TenantBytesTx(TenantId tenant) const {
  const auto it = tenant_bytes_tx_.find(tenant);
  return it == tenant_bytes_tx_.end() ? 0 : it->second;
}

SimDuration RdmaEngine::QpTouchCost(QpNum qp) {
  return qp_cache_.Touch(qp) ? 0 : env_->cost().rnic_qp_cache_miss;
}

void RdmaEngine::Transmit(PacketRef pkt, SimDuration extra_cost) {
  // kRnicTx fault site: WRs leaving this RNIC. ACKs are exempt — they are
  // generated on behalf of a remote request, and losing them would hang the
  // requester instead of failing it cleanly.
  if (pkt->kind != RdmaPacket::Kind::kAck) {
    // Armed before fault interception: the synthesized drop-ACK below
    // resolves the entry just like a real one.
    ArmAckTimeout(*pkt);
    const FaultDecision fault =
        env_->faults().Intercept(FaultSite::kRnicTx, FaultScope{pkt->tenant, node_},
                                 pkt->payload.data(), pkt->payload.size());
    switch (fault.action) {
      case FaultAction::kDrop: {
        // The WR dies in the TX pipeline. Synthesize the local error
        // completion RC delivers after retry exhaustion so the poster is
        // failed, not hung: outstanding is decremented and the CQE carries
        // kTransportError (the QP stays usable — see verbs.h).
        PacketRef ack = network_->packets().Acquire();
        ack->kind = RdmaPacket::Kind::kAck;
        ack->src = pkt->dst;
        ack->dst = node_;
        ack->src_qp = pkt->dst_qp;
        ack->dst_qp = pkt->src_qp;
        ack->tenant = pkt->tenant;
        ack->wr_id = pkt->wr_id;
        ack->imm = pkt->imm;
        ack->acked_op =
            pkt->kind == RdmaPacket::Kind::kSend ? RdmaOpcode::kSend : RdmaOpcode::kWrite;
        ack->status = WrStatus::kTransportError;
        sim().Schedule(env_->cost().rnic_rnr_backoff,
                       [this, ack = std::move(ack)]() { HandleAck(*ack); });
        return;
      }
      case FaultAction::kDelay:
        extra_cost += fault.delay;
        break;
      case FaultAction::kDuplicate:
        // A cloned packet; receive paths are idempotent.
        EnqueueTx(PacketRef(pkt), extra_cost);
        break;
      default:
        break;  // kPass, or kCorrupt (payload already flipped in place).
    }
  }
  EnqueueTx(std::move(pkt), extra_cost);
}

void RdmaEngine::EnqueueTx(PacketRef pkt, SimDuration extra_cost) {
  const uint64_t bytes = pkt->payload.size();
  SimDuration service = extra_cost;
  if (pkt->kind == RdmaPacket::Kind::kAck) {
    service += 100;  // ACK generation is nearly free in the NIC pipeline.
  } else {
    service += env_->cost().rnic_wr_tx +
               static_cast<SimDuration>(static_cast<double>(bytes) * env_->cost().rnic_per_byte_ns);
  }
  m_bytes_tx_.Add(bytes);
  if (pkt->tenant != kInvalidTenant && pkt->kind != RdmaPacket::Kind::kAck) {
    const auto [it, inserted] = tenant_bytes_tx_.try_emplace(pkt->tenant, 0);
    if (inserted) {
      // First traffic for this tenant: expose its fairness accounting
      // (Figs. 15/17 read per-tenant egress from the registry).
      MetricLabels labels = MetricLabels::Node(node_);
      labels.tenant = static_cast<int64_t>(pkt->tenant);
      env_->metrics().RegisterCallback("rnic_tenant_bytes_tx", labels,
                                       [this, tenant = pkt->tenant]() {
                                         return TenantBytesTx(tenant);
                                       });
    }
    it->second += bytes + kWireHeaderBytes;
  }
  // The TX pipeline is closed-form, like a link: the packet leaves when the
  // pipeline has finished every earlier packet and this one. The fabric
  // reserves the uplink for that instant now.
  tx_free_at_ = std::max(sim().now(), tx_free_at_) + service;
  const NodeId dst = pkt->dst;
  const TenantId tenant = pkt->tenant;
  auto delivery = [network = network_, pkt = std::move(pkt)]() mutable {
    RdmaEngine* peer = network->EngineAt(pkt->dst);
    assert(peer != nullptr);
    peer->DeliverFromWire(std::move(pkt));
  };
  static_assert(sizeof(delivery) <= Fabric::Delivery::kInlineBytes,
                "a packet delivery must not spill out of Fabric::Delivery");
  network_->fabric().SendAt(node_, dst, bytes, std::move(delivery), tenant, tx_free_at_);
}

bool RdmaEngine::PostWr(QpNum qp, const WorkRequest& wr, WrCompletionHook on_complete) {
  RcQp* q = FindQp(qp);
  if (q == nullptr || !q->connected) {
    return false;
  }
  if (pending_acks_.Contains(AckKey{qp, wr.wr_id})) {
    // A WR under this wr_id is still in flight on the QP: accepting a second
    // one would orphan the first poster's completion.
    return false;
  }
  PacketRef pkt = network_->packets().Acquire();  // Back to the pool on refusal.
  pkt->src = node_;
  pkt->dst = q->remote_node;
  pkt->src_qp = qp;
  pkt->dst_qp = q->remote_qp;
  pkt->tenant = q->tenant;
  pkt->wr_id = wr.wr_id;
  pkt->imm = wr.imm;
  switch (wr.opcode) {
    case RdmaOpcode::kSend:
      if (q->in_error || wr.src == nullptr) {
        return false;
      }
      pkt->kind = RdmaPacket::Kind::kSend;
      // DMA read of the source buffer happens at post time, into the
      // packet's own bytes; the sender must not touch the buffer again until
      // the completion (ownership rules enforce it), and a later write to it
      // cannot reach the bytes in flight.
      pkt->payload.assign(wr.src->payload().begin(), wr.src->payload().end());
      m_sends_.Increment();
      break;
    case RdmaOpcode::kWrite:
      if (wr.src == nullptr) {
        return false;
      }
      pkt->kind = RdmaPacket::Kind::kWrite;
      pkt->remote_pool = wr.remote_pool;
      pkt->remote_index = wr.remote_index;
      pkt->payload.assign(wr.src->payload().begin(), wr.src->payload().end());
      m_writes_.Increment();
      break;
    case RdmaOpcode::kRecv:
      return false;  // Receives are posted via PostRecvBuffer, not as WRs.
  }
  ++q->outstanding;
  // ArmAckTimeout (synchronous, inside Transmit) claims these into the
  // PendingAck entry for this WR.
  posting_hook_ = std::move(on_complete);
  posting_signaled_ = wr.signaled;
  Transmit(std::move(pkt), QpTouchCost(qp));
  posting_hook_ = nullptr;
  posting_signaled_ = true;
  return true;
}

bool RdmaEngine::PostSend(QpNum qp, const Buffer& src, uint64_t wr_id, uint32_t imm) {
  WorkRequest wr;
  wr.opcode = RdmaOpcode::kSend;
  wr.wr_id = wr_id;
  wr.imm = imm;
  wr.src = &src;
  return PostWr(qp, wr);
}

bool RdmaEngine::PostWrite(QpNum qp, const Buffer& src, PoolId remote_pool, uint32_t remote_index,
                           uint64_t wr_id, uint32_t imm) {
  WorkRequest wr;
  wr.opcode = RdmaOpcode::kWrite;
  wr.wr_id = wr_id;
  wr.imm = imm;
  wr.src = &src;
  wr.remote_pool = remote_pool;
  wr.remote_index = remote_index;
  return PostWr(qp, wr);
}

void RdmaEngine::DeliverFromWire(PacketRef pkt) {
  // kRnicRx fault site: packets entering this RNIC. Only payload-carrying
  // requests are interceptable; dropping an ACK would hang the peer's WR
  // rather than fail it.
  SimDuration rx_fault_delay = 0;
  if (pkt->kind == RdmaPacket::Kind::kSend || pkt->kind == RdmaPacket::Kind::kWrite) {
    const FaultDecision fault =
        env_->faults().Intercept(FaultSite::kRnicRx, FaultScope{pkt->tenant, node_},
                                 pkt->payload.data(), pkt->payload.size());
    switch (fault.action) {
      case FaultAction::kDrop:
        // Lost in the RX pipeline: NACK the sender so its WR completes with
        // an error and its buffer is recycled — dropped, counted, not hung.
        SendAck(*pkt,
                pkt->kind == RdmaPacket::Kind::kSend ? RdmaOpcode::kSend : RdmaOpcode::kWrite,
                WrStatus::kTransportError, 0);
        return;
      case FaultAction::kDelay:
        rx_fault_delay = fault.delay;
        break;
      case FaultAction::kDuplicate:
        DeliverReceived(PacketRef(pkt), 0);  // A cloned packet.
        break;
      default:
        break;  // kPass / kCorrupt (payload flipped in place; checksums catch).
    }
  }
  DeliverReceived(std::move(pkt), rx_fault_delay);
}

void RdmaEngine::DeliverReceived(PacketRef pkt, SimDuration extra_cost) {
  SimDuration service = extra_cost;
  switch (pkt->kind) {
    case RdmaPacket::Kind::kAck:
      service += 100;
      break;
    default:
      service += env_->cost().rnic_wr_rx + static_cast<SimDuration>(
                                        static_cast<double>(pkt->payload.size()) *
                                        env_->cost().rnic_per_byte_ns);
      break;
  }
  service += QpTouchCost(pkt->dst_qp);
  // Closed-form RX pipeline: the handler runs once the pipeline has finished
  // every earlier packet and this one.
  rx_free_at_ = std::max(sim().now(), rx_free_at_) + service;
  sim().ScheduleAt(rx_free_at_, [this, pkt = std::move(pkt)]() mutable {
    m_bytes_rx_.Add(pkt->payload.size());
    switch (pkt->kind) {
      case RdmaPacket::Kind::kSend:
        HandleSend(std::move(pkt));
        break;
      case RdmaPacket::Kind::kWrite:
        HandleWrite(*pkt);
        break;
      case RdmaPacket::Kind::kAck:
        HandleAck(*pkt);
        break;
    }
  });
}

void RdmaEngine::HandleSend(PacketRef pkt) {
  SharedReceiveQueue& srq = SrqOfTenant(pkt->tenant);
  const SharedReceiveQueue::PostedRecv recv = srq.Pop();
  Buffer* buffer = recv.buffer;
  if (buffer == nullptr) {
    // Receiver not ready: back off and retry delivery, as RC RNR NAK does.
    m_rnr_events_.Increment();
    if (++pkt->rnr_attempts > kMaxRnrRetries) {
      m_rnr_failures_.Increment();
      SendAck(*pkt, RdmaOpcode::kSend, WrStatus::kRnrRetryExceeded, 0);
      return;
    }
    sim().Schedule(env_->cost().rnic_rnr_backoff,
                   [this, pkt = std::move(pkt)]() mutable { HandleSend(std::move(pkt)); });
    return;
  }
  const auto len =
      static_cast<uint32_t>(std::min(pkt->payload.size(), buffer->data.size()));
  std::memcpy(buffer->data.data(), pkt->payload.data(), len);  // The DMA write.
  buffer->length = len;
  m_recv_completions_.Increment();
  SendAck(*pkt, RdmaOpcode::kSend, WrStatus::kSuccess, len);
  Completion cqe;
  cqe.wr_id = recv.wr_id;  // The *receiver's* posted WR id, per verbs semantics.
  cqe.opcode = RdmaOpcode::kRecv;
  cqe.status = WrStatus::kSuccess;
  cqe.byte_len = len;
  cqe.qp = pkt->dst_qp;
  cqe.tenant = pkt->tenant;
  cqe.src_node = pkt->src;
  cqe.buffer = buffer;
  cqe.imm = pkt->imm;
  cq_.Push(cqe);
}

void RdmaEngine::HandleWrite(const RdmaPacket& pkt) {
  BufferPool* pool = mr_table_.CheckAccess(pkt.remote_pool, kMrRemoteWrite);
  Buffer* buffer = pool == nullptr ? nullptr : pool->Resolve(BufferDescriptor{
                                                   pkt.remote_pool, pkt.remote_index, 0, 0});
  if (buffer == nullptr) {
    SendAck(pkt, RdmaOpcode::kWrite, WrStatus::kRemoteAccessError, 0);
    return;
  }
  if (buffer->owner.kind == OwnerId::Kind::kFunction) {
    // The receiver-oblivious hazard (section 2.1): the writer cannot know a
    // local function currently owns this buffer. The write proceeds anyway —
    // exactly the data race one-sided RDMA permits.
    m_oblivious_overwrites_.Increment();
  }
  const auto len =
      static_cast<uint32_t>(std::min(pkt.payload.size(), buffer->data.size()));
  std::memcpy(buffer->data.data(), pkt.payload.data(), len);
  buffer->length = len;
  // No receiver CQE for one-sided writes; only the sender learns.
  SendAck(pkt, RdmaOpcode::kWrite, WrStatus::kSuccess, len);
  const auto hook_it = write_hooks_.find(pkt.remote_pool);
  if (hook_it != write_hooks_.end()) {
    hook_it->second(buffer, pkt.remote_index);
  }
}

void RdmaEngine::SetWriteArrivalHook(PoolId pool, WriteArrivalHook hook) {
  write_hooks_[pool] = std::move(hook);
}

void RdmaEngine::HandleAck(const RdmaPacket& pkt) {
  PendingAck info;
  if (!pending_acks_.Take(AckKey{pkt.dst_qp, pkt.wr_id}, &info)) {
    // The WR already completed locally (ack timeout) or this is the ACK of
    // an injected duplicate: the poster must see exactly one completion.
    return;
  }
  sim().Cancel(info.timeout);
  RcQp* q = FindQp(pkt.dst_qp);
  if (q != nullptr && q->outstanding > 0) {
    --q->outstanding;
  }
  if (q != nullptr && pkt.status == WrStatus::kRnrRetryExceeded) {
    // Transport error: the QP transitions to the error state (RC semantics);
    // further posts fail until the connection is repaired.
    q->in_error = true;
  }
  Completion cqe;
  cqe.wr_id = pkt.wr_id;
  cqe.opcode = pkt.acked_op;
  cqe.status = pkt.status;
  cqe.byte_len = pkt.byte_len;
  cqe.qp = pkt.dst_qp;
  cqe.tenant = pkt.tenant;
  cqe.src_node = pkt.src;
  cqe.imm = pkt.imm;
  DeliverWrCompletion(info, cqe);
}

void RdmaEngine::ArmAckTimeout(const RdmaPacket& pkt) {
  const AckKey key{pkt.src_qp, pkt.wr_id};
  // PostWr refused a WR whose key is still pending, so this is a new entry.
  PendingAck& info = *pending_acks_.TryEmplace(key).first;
  info.op = pkt.kind == RdmaPacket::Kind::kSend ? RdmaOpcode::kSend : RdmaOpcode::kWrite;
  info.tenant = pkt.tenant;
  info.dst = pkt.dst;
  info.imm = pkt.imm;
  info.signaled = posting_signaled_;
  info.hook = std::move(posting_hook_);
  info.timeout =
      sim().Schedule(env_->cost().rnic_ack_timeout, [this, key]() { OnAckTimeout(key); });
}

void RdmaEngine::OnAckTimeout(AckKey key) {
  PendingAck info;
  if (!pending_acks_.Take(key, &info)) {
    return;  // Defensive: every path that resolves the WR cancels this timer.
  }
  RcQp* q = FindQp(key.first);
  if (q != nullptr && q->outstanding > 0) {
    --q->outstanding;
  }
  AckTimeoutHandleFor(info.tenant).Increment();
  env_->Trace(TraceCategory::kRdma, static_cast<uint32_t>(node_), "ack_timeout", key.second,
              static_cast<uint64_t>(info.tenant));
  Completion cqe;
  cqe.wr_id = key.second;
  cqe.opcode = info.op;
  cqe.status = WrStatus::kTransportError;
  cqe.qp = key.first;
  cqe.tenant = info.tenant;
  cqe.src_node = info.dst;
  cqe.imm = info.imm;
  DeliverWrCompletion(info, cqe);
}

void RdmaEngine::DeliverWrCompletion(const PendingAck& info, const Completion& cqe) {
  if (info.hook) {
    info.hook(cqe);
    return;
  }
  if (info.signaled) {
    cq_.Push(cqe);
  }
}

void RdmaEngine::SendAck(const RdmaPacket& original, RdmaOpcode op, WrStatus status,
                         uint32_t byte_len) {
  PacketRef ack = network_->packets().Acquire();
  ack->kind = RdmaPacket::Kind::kAck;
  ack->src = node_;
  ack->dst = original.src;
  ack->src_qp = original.dst_qp;
  ack->dst_qp = original.src_qp;
  ack->tenant = original.tenant;
  ack->wr_id = original.wr_id;
  ack->imm = original.imm;
  ack->acked_op = op;
  ack->status = status;
  ack->byte_len = byte_len;
  Transmit(std::move(ack));
}

}  // namespace nadino
