// Per-node simulated RNIC + verbs provider.
//
// An RdmaEngine models one RNIC (a ConnectX-6, standalone or integrated into
// a BlueField DPU): RC QPs, a node-wide completion queue, per-tenant shared
// receive queues, a QP-context cache, TX/RX processing pipelines, and the
// memory-region table. Payload bytes really move: the TX path snapshots the
// source buffer (the DMA read) and the RX path deposits the bytes into the
// posted receive buffer (the DMA write) — neither counts as a *software*
// copy, which is exactly the paper's definition of zero-copy (footnote 1).
//
// The two pipelines are closed-form, like a link (src/sim/link.h): each
// keeps only the instant it finishes its last packet. A posted packet's
// departure is known when it is posted, so the fabric reserves the uplink
// then and the TX side costs no event (timing is unchanged, but downlink
// arrivals due at the same nanosecond now run in post order; see
// src/rdma/fabric.h). The RX side keeps two: the arrival,
// where the kRnicRx fault draw and the QP-cache touch happen, and the
// handler, at max(arrival, RX free) + service. Fusing them moved four bench
// goldens through equal-time event order and the cache touch's timing.
//
// Packets travel by handle. The network owns a pool of RdmaPackets, and a
// move-only PacketRef is what rides the fabric delivery, the RX handler
// event and the RNR retry; a recycled packet keeps its payload capacity, so
// a warm message path allocates nothing (DESIGN.md §3c).

#ifndef SRC_RDMA_RDMA_ENGINE_H_
#define SRC_RDMA_RDMA_ENGINE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/env.h"
#include "src/core/types.h"
#include "src/mem/buffer_pool.h"
#include "src/rdma/completion_queue.h"
#include "src/rdma/fabric.h"
#include "src/rdma/memory_region.h"
#include "src/rdma/qp_cache.h"
#include "src/rdma/shared_receive_queue.h"
#include "src/rdma/verbs.h"
#include "src/sim/flat_id_map.h"
#include "src/sim/simulator.h"

namespace nadino {

class RdmaEngine;

// One packet between two RNICs: a WR (SEND or WRITE) or its ACK. `payload`
// is the post-time snapshot of the source bytes; it is never shared with the
// source buffer.
struct RdmaPacket {
  enum class Kind : uint8_t { kSend, kWrite, kAck };
  Kind kind = Kind::kSend;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  QpNum src_qp = 0;
  QpNum dst_qp = 0;
  TenantId tenant = kInvalidTenant;
  uint64_t wr_id = 0;
  uint32_t imm = 0;
  RdmaOpcode acked_op = RdmaOpcode::kSend;
  WrStatus status = WrStatus::kSuccess;
  PoolId remote_pool = 0;
  uint32_t remote_index = 0;
  uint32_t byte_len = 0;  // kAck: the bytes the peer landed.
  int rnr_attempts = 0;
  std::vector<std::byte> payload;
};

class PacketPool;

// Move-only owning handle to a pooled RdmaPacket; destroying it returns the
// packet to its pool. The explicit copy constructor is the only way to copy
// a packet: it clones the packet into a fresh slot, for a fault-injected
// duplicate (kRnicTx, kRnicRx, and the kFabric / kLink Clone() of a
// delivery that holds a PacketRef).
class PacketRef {
 public:
  PacketRef() noexcept = default;
  PacketRef(PacketRef&& other) noexcept : slot_(std::exchange(other.slot_, nullptr)) {}
  PacketRef& operator=(PacketRef&& other) noexcept {
    if (this != &other) {
      Release();
      slot_ = std::exchange(other.slot_, nullptr);
    }
    return *this;
  }
  explicit PacketRef(const PacketRef& other);
  PacketRef& operator=(const PacketRef&) = delete;
  ~PacketRef() { Release(); }

  RdmaPacket& operator*() const { return *Get(); }
  RdmaPacket* operator->() const { return Get(); }

 private:
  friend class PacketPool;
  struct Slot;

  explicit PacketRef(Slot* slot) noexcept : slot_(slot) {}
  RdmaPacket* Get() const;
  void Release() noexcept;

  Slot* slot_ = nullptr;
};

struct PacketRef::Slot {
  RdmaPacket packet;
  PacketPool* pool = nullptr;
  Slot* next_free = nullptr;
};

// Packet storage with stable addresses and a free list. It grows to the peak
// number of packets in flight and then recycles them.
//
// Lifetime: handles can outlive the pool's owner. Events still queued when a
// run ends are destroyed by ~Simulator, and a Cluster destroys its network
// before its simulator. So the owner does not delete the pool; it Retire()s
// it, and the pool deletes itself once its last live handle is released.
class PacketPool {
 public:
  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  // A packet with default fields and an empty payload that keeps the
  // capacity it had when it was last released.
  PacketRef Acquire();

  // Called once, by the owner, in place of delete.
  void Retire();

  // Packets currently held by a handle.
  size_t live() const { return live_; }
  // Packets ever constructed (the pool's peak).
  size_t capacity() const { return slots_.size(); }

  // Deleter for a std::unique_ptr owner.
  struct Retirer {
    void operator()(PacketPool* pool) const { pool->Retire(); }
  };

 private:
  friend class PacketRef;

  ~PacketPool() = default;
  void Release(PacketRef::Slot* slot) noexcept;

  std::deque<PacketRef::Slot> slots_;  // Never shrinks: addresses stay valid.
  PacketRef::Slot* free_ = nullptr;
  size_t live_ = 0;
  bool retired_ = false;
};

inline RdmaPacket* PacketRef::Get() const {
  assert(slot_ != nullptr);
  return &slot_->packet;
}

inline void PacketRef::Release() noexcept {
  if (slot_ != nullptr) {
    slot_->pool->Release(std::exchange(slot_, nullptr));
  }
}

inline void PacketPool::Release(PacketRef::Slot* slot) noexcept {
  slot->next_free = free_;
  free_ = slot;
  if (--live_ == 0 && retired_) {
    delete this;
  }
}

// Owns the fabric, the engine registry and the packet pool; routes packets
// between engines.
class RdmaNetwork {
 public:
  explicit RdmaNetwork(Env& env) : fabric_(env), packets_(new PacketPool) {}

  void Attach(RdmaEngine* engine);
  RdmaEngine* EngineAt(NodeId node) const;
  Fabric& fabric() { return fabric_; }
  PacketPool& packets() { return *packets_; }

 private:
  Fabric fabric_;
  std::unique_ptr<PacketPool, PacketPool::Retirer> packets_;
  std::map<NodeId, RdmaEngine*> engines_;
};

class RdmaEngine {
 public:
  RdmaEngine(Env& env, NodeId node, RdmaNetwork* network);

  RdmaEngine(const RdmaEngine&) = delete;
  RdmaEngine& operator=(const RdmaEngine&) = delete;

  NodeId node() const { return node_; }
  RdmaNetwork* network() const { return network_; }
  CompletionQueue& cq() { return cq_; }
  MrTable& mr_table() { return mr_table_; }
  QpCache& qp_cache() { return qp_cache_; }
  const CostModel& cost() const { return env_->cost(); }

  // --- Control path ---------------------------------------------------------

  // Creates a (half-open) RC QP for `tenant`; pair it with Connect().
  QpNum CreateQp(TenantId tenant);

  // Binds a local QP to its remote peer. Control-plane only: connection setup
  // *time* is charged by the ConnectionService (section 3.3), not here.
  bool Connect(QpNum local_qp, NodeId remote_node, QpNum remote_qp);

  // Creates and pairs a QP on each engine; returns {qp_on_a, qp_on_b}.
  static std::pair<QpNum, QpNum> CreateConnectedPair(RdmaEngine& a, RdmaEngine& b,
                                                     TenantId tenant);

  SharedReceiveQueue& SrqOfTenant(TenantId tenant);

  // Transfers ownership of `buffer` from `from` to this RNIC and posts it to
  // the tenant's shared RQ under the receiver-chosen `wr_id`. Returns false on
  // ownership/tenant mismatch.
  bool PostRecvBuffer(BufferPool* pool, Buffer* buffer, OwnerId from, uint64_t wr_id);

  // --- Data path (costs charged to the NIC pipelines, not the caller) -------

  // Invoked with the WR's completion (success or error) INSTEAD of pushing a
  // CQE. WR programs post their interior steps with a hook so the software
  // completion consumers never wake for them; the hook runs in NIC context
  // and must not charge core time.
  using WrCompletionHook = std::function<void(const Completion&)>;

  // The single posting path: every data-path verb is expressed as a
  // WorkRequest. PostSend/PostWrite lower to one-WR calls.
  // Returns false without side effects when the QP or WR is unusable (the
  // caller keeps its buffer), including when a WR posted on this QP under
  // the same wr_id is still awaiting its ACK. An unsignaled WR with no hook
  // completes silently (outstanding is still decremented on ACK).
  bool PostWr(QpNum qp, const WorkRequest& wr, WrCompletionHook on_complete = nullptr);

  // Two-sided send: the payload is snapshotted now (DMA read) and lands in a
  // receive buffer posted at the peer. `imm` travels in the CQE.
  bool PostSend(QpNum qp, const Buffer& src, uint64_t wr_id, uint32_t imm = 0);

  // One-sided write into `remote_pool[remote_index]`. Completes locally with
  // kRemoteAccessError if the peer never granted kMrRemoteWrite on that pool.
  bool PostWrite(QpNum qp, const Buffer& src, PoolId remote_pool, uint32_t remote_index,
                 uint64_t wr_id, uint32_t imm = 0);

  // Outstanding (un-acked) WRs on a QP; the DNE's least-congested connection
  // selection reads this.
  uint32_t Outstanding(QpNum qp) const;

  // RC semantics: a transport error (RNR retry exhaustion) moves the QP to
  // the error state; subsequent posts fail fast until it is reset.
  bool InError(QpNum qp) const;

  // Control-plane reset (back to RTS); the pair's peer QP is NOT reset here —
  // real recovery re-runs the connection handshake, which ConnectionService's
  // Repair() models with the full reconnect cost.
  void ResetQp(QpNum qp);

  // Peer coordinates of a connected QP (kInvalidNode / 0 when unknown); the
  // control plane's Repair() resolves the peer engine through these.
  NodeId RemoteNodeOfQp(QpNum qp) const;
  QpNum RemoteQpOf(QpNum qp) const;

  // Tears a QP's context out of the RNIC (tenant departure): the QP number
  // is retired and its ICM cache slot is freed. Packets already in flight
  // toward the destroyed QP resolve to null lookups — dropped, counted by
  // their senders' ACK timeouts, never hung.
  void DestroyQp(QpNum qp);

  // Per-tenant bytes transmitted (fairness accounting for Figs. 15/17).
  uint64_t TenantBytesTx(TenantId tenant) const;

  // SIMULATION OBSERVER, not a data-plane signal: one-sided writes are
  // invisible to the receiver CPU by design. Receiver-side *pollers* (FaRM /
  // FUYAO style) register this hook so the simulator can schedule their next
  // poll-loop discovery of the written buffer instead of idle-spinning the
  // event queue; the hook implementation must still charge the poll interval
  // and iteration costs.
  using WriteArrivalHook = std::function<void(Buffer* buffer, uint32_t index)>;
  void SetWriteArrivalHook(PoolId pool, WriteArrivalHook hook);

 private:
  friend class RdmaNetwork;

  struct RcQp {
    QpNum num = 0;
    TenantId tenant = kInvalidTenant;
    NodeId remote_node = kInvalidNode;
    QpNum remote_qp = 0;
    bool connected = false;
    bool in_error = false;  // RC error state (e.g. RNR retry exhaustion).
    uint32_t outstanding = 0;
  };

  static constexpr int kMaxRnrRetries = 7;

  // A WR awaiting its remote ACK; enough context to
  // synthesize the local error completion if the wire loses either leg.
  struct PendingAck {
    RdmaOpcode op = RdmaOpcode::kSend;
    TenantId tenant = kInvalidTenant;
    NodeId dst = kInvalidNode;
    uint32_t imm = 0;
    bool signaled = true;
    WrCompletionHook hook;  // Consumes the completion instead of the CQ.
    EventId timeout = kInvalidEventId;  // The armed rnic_ack_timeout.
  };
  // (local qp, wr_id): wr_ids are per-poster, so qualify with the QP.
  using AckKey = std::pair<QpNum, uint64_t>;

  RcQp* FindQp(QpNum qp);
  const RcQp* FindQp(QpNum qp) const;

  // Tracks the WR and arms the rnic_ack_timeout deadline, which the ACK
  // cancels, as an RC QP's retransmission timer stops. If no
  // ACK arrives in time, completes the WR locally with kTransportError (RC
  // retransmit exhaustion), exactly like an injected kRnicTx drop —
  // dropped, counted, not hung.
  void ArmAckTimeout(const RdmaPacket& pkt);
  void OnAckTimeout(AckKey key);

  // Consults the kRnicTx fault site, then charges the TX pipeline and hands
  // the packet to the fabric with its departure instant. An injected drop
  // completes the WR locally with WrStatus::kTransportError instead of
  // transmitting.
  void Transmit(PacketRef pkt, SimDuration extra_cost = 0);

  // The post-interception half of Transmit (duplicates re-enter here so an
  // injected duplicate cannot re-trigger the fault site).
  void EnqueueTx(PacketRef pkt, SimDuration extra_cost);

  // Entry point for packets arriving from the fabric (called by the network).
  // Consults the kRnicRx fault site; a drop NACKs the sender with
  // WrStatus::kTransportError so its WR fails instead of hanging.
  void DeliverFromWire(PacketRef pkt);

  // Post-interception RX: charges the RX pipeline and schedules the per-kind
  // handler when it is through (duplicates re-enter here, bypassing the
  // fault site).
  void DeliverReceived(PacketRef pkt, SimDuration extra_cost);

  // RX-pipeline-charged handlers per packet kind. Only HandleSend keeps the
  // handle: an RNR backoff re-delivers the same packet.
  void HandleSend(PacketRef pkt);
  void HandleWrite(const RdmaPacket& pkt);
  void HandleAck(const RdmaPacket& pkt);

  void SendAck(const RdmaPacket& original, RdmaOpcode op, WrStatus status, uint32_t byte_len);

  // Routes a finished WR's completion: hook if one was attached, else the CQ
  // when the WR was signaled, else nowhere.
  void DeliverWrCompletion(const PendingAck& info, const Completion& cqe);

  SimDuration QpTouchCost(QpNum qp);

  Simulator& sim() const { return env_->sim(); }

  Env* env_;
  NodeId node_;
  RdmaNetwork* network_;
  // When the TX / RX pipeline finishes its last packet (Lindley's recurrence,
  // as in Link).
  SimTime tx_free_at_ = 0;
  SimTime rx_free_at_ = 0;
  CompletionQueue cq_;
  MrTable mr_table_;
  QpCache qp_cache_;
  QpNum next_qp_ = 1;
  std::map<QpNum, RcQp> qps_;
  std::map<TenantId, std::unique_ptr<SharedReceiveQueue>> srqs_;
  std::map<TenantId, uint64_t> tenant_bytes_tx_;
  FlatIdMap<AckKey, PendingAck> pending_acks_;
  std::map<PoolId, WriteArrivalHook> write_hooks_;
  // Staging for the WR being posted right now: PostWr parks the hook and the
  // signaled flag here, and ArmAckTimeout (called
  // synchronously inside Transmit) claims them into the PendingAck entry.
  WrCompletionHook posting_hook_;
  bool posting_signaled_ = true;
  // Registry-backed rnic_* counters (labels: node), resolved once at
  // construction into raw-word handles (metrics.h).
  CounterHandle m_sends_;
  CounterHandle m_writes_;
  CounterHandle m_recv_completions_;
  CounterHandle m_rnr_events_;
  CounterHandle m_rnr_failures_;
  CounterHandle m_bytes_tx_;
  CounterHandle m_bytes_rx_;
  // One-sided writes that landed in a buffer currently owned by a function:
  // the "receiver-oblivious" data race the paper's section 2.1 warns about.
  CounterHandle m_oblivious_overwrites_;
  // rnic_ack_timeouts handles, created lazily on the first timeout for a
  // (node, tenant) pair so unfaulted runs keep byte-identical snapshots.
  CounterHandle& AckTimeoutHandleFor(TenantId tenant);
  std::map<TenantId, CounterHandle> ack_timeout_handles_;
};

}  // namespace nadino

#endif  // SRC_RDMA_RDMA_ENGINE_H_
