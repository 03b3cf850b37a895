// Per-tenant TX scheduling inside the network engine.
//
// NADINO enforces weighted fair sharing of RNIC bandwidth with a Deficit
// Weighted Round Robin scheduler (paper section 3.3, [85]); the multi-tenancy
// evaluation (Figs. 15/17) contrasts it with a First-Come-First-Served engine
// that has no tenant awareness. A tenant's DWRR weight is the one it was
// attached with; nothing adjusts it at run time.

#ifndef SRC_DNE_SCHEDULER_H_
#define SRC_DNE_SCHEDULER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/core/types.h"
#include "src/mem/buffer.h"
#include "src/sim/ring_queue.h"

namespace nadino {

struct TxItem {
  TenantId tenant = kInvalidTenant;
  BufferDescriptor desc;
  uint32_t bytes = 0;  // Wire footprint used for deficit accounting.
  // Per-message ingestion handling the engine still owes for this item (e.g.
  // Comch channel handling discovered by the engine's poll loop). Charged as
  // part of the scheduled TX stage so tenant fairness governs it.
  int64_t ingest_cost = 0;
  // Delivery attempt, 1-based; retry recovery re-ingests with attempt + 1
  // and the tenant's RetryPolicy bounds it (src/core/slo.h).
  uint32_t attempt = 1;
};

class TxScheduler {
 public:
  virtual ~TxScheduler() = default;

  // Declares a tenant and its weight (FCFS ignores weights).
  virtual void SetWeight(TenantId tenant, uint32_t weight) = 0;

  virtual void Enqueue(TxItem item) = 0;

  // Picks the next item to transmit; false when all queues are empty.
  virtual bool Dequeue(TxItem* out) = 0;

  virtual size_t pending() const = 0;

  // Items ever served for `tenant` (fairness accounting).
  virtual uint64_t Served(TenantId tenant) const = 0;
};

// Single FIFO across all tenants: whoever enqueues first transmits first.
class FcfsScheduler : public TxScheduler {
 public:
  void SetWeight(TenantId tenant, uint32_t weight) override;
  void Enqueue(TxItem item) override;
  bool Dequeue(TxItem* out) override;
  size_t pending() const override { return queue_.size(); }
  uint64_t Served(TenantId tenant) const override;

 private:
  RingQueue<TxItem> queue_;
  // Served counts indexed directly by tenant id (experiments use small dense
  // ids); rare large ids overflow into the map so any TenantId stays correct.
  static constexpr uint32_t kDirectTenantLimit = 1024;
  std::vector<uint64_t> served_direct_;
  std::map<TenantId, uint64_t> served_overflow_;
};

// Classic DWRR (Shreedhar & Varghese): each tenant has a deficit counter
// replenished by weight * quantum on each round-robin visit; items are served
// while the deficit covers their byte size.
class DwrrScheduler : public TxScheduler {
 public:
  explicit DwrrScheduler(uint32_t quantum_bytes = 2048) : quantum_(quantum_bytes) {}

  void SetWeight(TenantId tenant, uint32_t weight) override;
  void Enqueue(TxItem item) override;
  bool Dequeue(TxItem* out) override;
  size_t pending() const override { return pending_; }
  uint64_t Served(TenantId tenant) const override;

  int64_t DeficitOf(TenantId tenant) const;

 private:
  struct TenantState {
    uint32_t weight = 1;
    int64_t deficit = 0;
    bool in_active_list = false;
    // True when the tenant is due its once-per-round quantum replenishment
    // (set on (re)activation and on rotation to the back of the round).
    bool fresh_visit = true;
    RingQueue<TxItem> queue;
    uint64_t served = 0;
  };

  static constexpr uint32_t kDirectTenantLimit = 1024;
  static constexpr uint32_t kNoState = 0xFFFFFFFFu;

  // Dense per-packet lookup: small tenant ids (every experiment) index the
  // direct table in O(1) with no hashing or tree walk; rare large ids fall
  // back to the overflow map. States live in `states_` and never move their
  // index, so the active ring holds plain indices.
  uint32_t IndexOf(TenantId tenant);             // Allocates on first use.
  uint32_t FindIndex(TenantId tenant) const;     // kNoState when absent.
  TenantState& StateOf(TenantId tenant) { return states_[IndexOf(tenant)]; }

  uint32_t quantum_;
  size_t pending_ = 0;
  std::vector<TenantState> states_;
  std::vector<uint32_t> direct_index_;           // tenant id -> states_ index.
  std::map<TenantId, uint32_t> overflow_index_;  // ids >= kDirectTenantLimit.
  RingQueue<uint32_t> active_;  // Round-robin order over backlogged tenants.
};

}  // namespace nadino

#endif  // SRC_DNE_SCHEDULER_H_
