// Deterministic discrete-event simulation core.
//
// The simulator owns a slab of intrusive event records plus one or more
// binary heaps ("shards") of small POD entries ordered by (time, sequence).
// Components schedule callbacks at future virtual times; Run() drains the
// shards in that order, so two events scheduled for the same instant fire in
// scheduling order. This total order plus a seeded PRNG makes every
// experiment in this repository exactly reproducible.
//
// Hot-path design (DESIGN.md §3c, §3g, §3h):
//  - Event callbacks live inline in slab slots (small-buffer optimization,
//    kInlineBytes of capture storage); only oversized captures fall back to
//    the heap (counted by callback_heap_spills()), so a steady-state event
//    costs zero allocations.
//  - Each shard heap holds 24-byte {when, seq, slot} PODs — sift operations
//    move trivially-copyable values, never callbacks.
//  - Slots are recycled through a free list. Events cannot be cancelled:
//    every scheduled callback runs. A component that needs a timeout keeps
//    its own deadlines and lets a stale timer fire as a no-op (the RNIC's
//    ACK-deadline queue, src/rdma/rdma_engine.h).
//  - Far-future tier (§3c): each shard keeps only near entries in its heap.
//    An entry whose slab (when >> kSlabShift, 65.5 us) is at or past the
//    shard's frontier goes, unsorted, into a ring of kRingBuckets slab
//    buckets, or into an overflow heap when it lies past the ring. Invariant:
//    heap slabs < frontier <= tier slabs. A shard whose heap is empty shows
//    the merge a lower bound on its tier; when that bound wins, the earliest
//    slab moves into the heap (one Floyd rebuild) and the frontier advances.
//    Batch arrivals and 5 ms ACK deadlines thus wait out of the heap, and since seq
//    is assigned at schedule time and the heap orders by (when, seq), the
//    executed order cannot change. Tier nodes come from a per-shard pool
//    with a free list, and heap, pool and overflow are sized for the shard's
//    whole backlog, so a warm tier allocates nothing.
//  - Sharding (§3g): SetShardCount(k) splits the queue into k independent
//    heaps merged on (when, seq). Because (when, seq) is a strict total
//    order assigned at Schedule time, the executed event sequence — and with
//    it every metric snapshot — is byte-identical for ANY shard count.
//    Re-sharding consolidates every heap and tier entry onto shard 0.
//  - The merge itself: a linear scan of the cached shard head keys, 16
//    contiguous bytes per shard.
//  - ScheduleBatch() admits many events in one call: equivalent to per-item
//    ScheduleAt in index order (same seq assignment), with no need to sort
//    the batch: far entries drop into the tier's buckets, and the near run
//    is bulk-rebuilt bottom-up (Floyd) when it dominates the heap.
//
// Parallel drain (§3h tentpole): SetWorkerCount(W>1) makes Run()/RunUntil()
// drain the shards on W real threads as a conservative parallel DES:
//  - The run first moves every tier entry into its heap: worker-context
//    schedules push straight into heaps, so neither workers nor mailboxes
//    ever touch a tier. The join moves each frontier just past its heap's
//    latest entry, which restores the tier invariant.
//  - Each worker owns the shards with index ≡ worker (mod W) and drains them
//    independently inside a window [global_min, global_min + lookahead): the
//    lookahead is the minimum cross-shard delivery latency (SetLookahead,
//    wired from CostModel::MinCrossShardDelay by the cluster layer), so no
//    event a remote shard could still produce can land inside the window.
//  - Schedules targeting a different shard than the one executing are not
//    pushed directly (that would race, and would make behaviour depend on
//    which worker happens to own the destination): they are buffered in
//    per-(worker, destination-shard) mailboxes and flushed into the owning
//    heap at the epoch barrier. Routing through the mailbox for EVERY
//    cross-shard schedule — even when source and destination happen to share
//    a worker — keeps the per-shard executed sequence a function of the
//    shard count alone, so runs are deterministic for a fixed shard count
//    regardless of worker count.
//  - Sequence numbers in parallel mode are strided per origin shard
//    (seq = base + origin + nshards*k), assigned by the deterministic
//    per-shard execution, so the (when, seq) total order never depends on
//    thread interleaving. Serial mode is untouched: SetWorkerCount(1) — the
//    default — takes exactly the pre-parallel code path, byte for byte.
//  - Slab slots are partitioned into per-worker arenas (index bits above
//    kArenaLocalBits name the arena) so allocation never contends; frees
//    into a foreign arena (events admitted serially before the parallel
//    run) are deferred per worker and folded after the join.
//  - An epoch barrier (sense-free phase-counter spin barrier, yielding after
//    a bounded spin) separates the execute and flush phases; the last
//    arriver computes the next window, runs the barrier hook (per-worker
//    metric-lane folding, SetBarrierHook), and publishes.
// Contract for callbacks that run under workers>1: cross-shard schedules
// must use delays >= lookahead (the cluster wiring guarantees this for
// fabric/Comch crossings), and shared mutable state must be shard-confined.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/inline_callback.h"
#include "src/sim/time.h"

namespace nadino {

namespace internal {

// The event slot's callback: captures up to 96 bytes live inline in the slab
// (DESIGN.md §3c). Link and Fabric continuations are sized to nest inside it.
using EventCallback = InlineCallback<96>;

}  // namespace internal

class Simulator {
 public:
  // Upper bound on event-queue shards; one per node is the intended mapping,
  // so this matches the largest topology the benches sweep.
  static constexpr uint32_t kMaxShards = 64;
  // Upper bound on drain workers; bounded by the arena index bits (slot
  // indices reserve the bits above kArenaLocalBits for the arena id).
  static constexpr uint32_t kMaxWorkers = 32;

  Simulator() : shards_(1), arenas_(1) {
    std::fill(std::begin(head_keys_), std::end(head_keys_), kEmptyHead);
  }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  // Current virtual time. Only advances inside Run*/Step. Under a parallel
  // drain, a worker-context caller sees its shard-local clock.
  SimTime now() const {
    const WorkerState* ws = tls_ctx_;
    return (ws != nullptr && ws->sim == this) ? ws->local_now : now_;
  }

  // Splits the event queue into `shards` independent heaps (clamped to
  // [1, kMaxShards]) merged deterministically on (when, seq). The executed
  // order is byte-identical for any shard count; already-pending events are
  // consolidated onto shard 0. Shard indices passed to *On/ScheduleBatch are
  // taken modulo the shard count, so `node_id % anything` is always safe.
  void SetShardCount(uint32_t shards);
  uint32_t shard_count() const { return static_cast<uint32_t>(shards_.size()); }

  // Number of drain workers for Run()/RunUntil(), clamped to
  // [1, kMaxWorkers]. 1 (the default) is the serial path, byte-identical to
  // the pre-parallel simulator. W>1 drains the shards on W threads as a
  // conservative PDES (see the header comment); runs are deterministic for a
  // fixed shard count independent of W. More workers than shards is clamped
  // at run time.
  void SetWorkerCount(uint32_t workers);
  uint32_t worker_count() const { return worker_count_; }

  // The conservative lookahead: the minimum latency of any cross-shard
  // delivery (clamped to >= 1 ns). Callbacks running under workers>1 must
  // not schedule onto a different shard with a delay below this.
  void SetLookahead(SimDuration lookahead) { lookahead_ = lookahead < 1 ? 1 : lookahead; }
  SimDuration lookahead() const { return lookahead_; }

  // Hook run single-threadedly by the epoch barrier's last arriver once per
  // window (all workers quiesced): the fold point for per-worker metric
  // lanes (CounterLanes). Also invoked once after the final window.
  void SetBarrierHook(std::function<void()> hook) { barrier_hook_ = std::move(hook); }

  // Schedules `f` to run `delay` nanoseconds from now. Negative delays clamp
  // to zero (fire this instant, after already-queued same-instant events).
  // The event lands on the shard of the currently-running event (shard 0
  // outside event context): a request admitted onto its node's shard keeps
  // its whole event chain there without threading shard ids through every
  // component. Inheritance never changes the executed order — only which
  // heap carries the entry.
  template <typename F>
  void Schedule(SimDuration delay, F&& f) {
    ScheduleOn(CurrentShard(), delay, std::forward<F>(f));
  }

  // Schedules `f` at an absolute virtual time (clamped to >= now()). Same
  // shard inheritance as Schedule().
  template <typename F>
  void ScheduleAt(SimTime when, F&& f) {
    ScheduleAtOn(CurrentShard(), when, std::forward<F>(f));
  }

  // Shard-targeted variants: identical semantics, but the event lives on the
  // given shard's heap (per-node admission in big topologies).
  template <typename F>
  void ScheduleOn(uint32_t shard, SimDuration delay, F&& f) {
    if (delay < 0) {
      delay = 0;
    }
    ScheduleAtOn(shard, now() + delay, std::forward<F>(f));
  }

  // Under a parallel drain, a cross-shard schedule is buffered in the
  // worker's mailbox and admitted at the next epoch barrier.
  template <typename F>
  void ScheduleAtOn(uint32_t shard, SimTime when, F&& f) {
    if (WorkerState* ws = ParallelContext()) {
      ParallelScheduleAtOn(ws, shard, when, std::forward<F>(f));
      return;
    }
    if (when < now_) {
      when = now_;
    }
    const uint32_t slot_index = AllocSlot(arenas_[0], 0);
    callback_heap_spills_ += SlotAt(slot_index).cb.Emplace(std::forward<F>(f)) ? 1 : 0;
    Enqueue(ShardIndex(shard), HeapEntry{when, next_seq_++, slot_index});
    ++live_count_;
  }

  // Bulk admission of `whens.size()` events onto one shard; `make(i)` builds
  // the i-th callback. Equivalent to calling ScheduleAtOn(shard, whens[i],
  // make(i)) in index order — same seq assignment, same total order, so runs
  // are byte-identical either way, and `whens` need not be sorted. Entries
  // past the shard's frontier drop unsorted into the far-future tier; the
  // rest are appended to the heap, which is rebuilt bottom-up (Floyd) when
  // the appended run rivals its backlog and sifted up entry by entry
  // otherwise. Timestamps clamp to >= now(). Under a parallel drain the
  // batch degrades to per-item admission through the worker path (mailboxed
  // when cross-shard).
  template <typename MakeFn>
  void ScheduleBatch(uint32_t shard, const std::vector<SimTime>& whens, MakeFn&& make) {
    if (whens.empty()) {
      return;
    }
    if (WorkerState* ws = ParallelContext()) {
      for (size_t i = 0; i < whens.size(); ++i) {
        ParallelScheduleAtOn(ws, shard, whens[i], make(i));
      }
      return;
    }
    const uint32_t index = ShardIndex(shard);
    Shard& target = shards_[index];
    std::vector<HeapEntry>& heap = target.heap;
    const size_t old_size = heap.size();
    ReserveBacklog(target, old_size + target.tier_count + whens.size());
    if (old_size == 0 && target.tier_count == 0) {
      // An empty shard: open the frontier after the batch's earliest slab,
      // so at least that entry lands in the heap.
      SimTime earliest = std::numeric_limits<SimTime>::max();
      for (const SimTime when : whens) {
        earliest = std::min(earliest, std::max(when, now_));
      }
      target.frontier_slab = SlabOf(earliest) + 1;
    }
    for (size_t i = 0; i < whens.size(); ++i) {
      const SimTime when = std::max(whens[i], now_);
      const uint32_t slot_index = AllocSlot(arenas_[0], 0);
      callback_heap_spills_ += SlotAt(slot_index).cb.Emplace(make(i)) ? 1 : 0;
      const HeapEntry entry{when, next_seq_++, slot_index};
      if (SlabOf(when) < target.frontier_slab) {
        heap.push_back(entry);
      } else {
        TierInsert(target, entry);
      }
    }
    live_count_ += whens.size();
    HeapifyAppended(heap, old_size);
    SyncHead(index);
  }

  // Runs until the event queue is empty or Stop() is called. With
  // SetWorkerCount(W>1) and more than one shard, drains on W threads.
  void Run();

  // Runs events with timestamp <= `deadline`, then sets now() to `deadline`
  // (if the queue drained earlier the clock still advances to the deadline).
  void RunUntil(SimTime deadline);

  // Convenience: RunUntil(now() + span).
  void RunFor(SimDuration span) { RunUntil(now_ + span); }

  // Executes the single next event, if any. Returns false when idle. Clears
  // a prior Stop(), consistently with Run()/RunUntil(). Always serial.
  bool Step();

  // Makes Run()/RunUntil() return after the current event completes (in
  // parallel mode: each worker stops after its current event; the run ends
  // at the next barrier).
  void Stop() { stopped_.store(true, std::memory_order_relaxed); }

  // Total number of callbacks executed; useful for perf accounting and for
  // asserting determinism (equal seeds => equal event counts).
  uint64_t events_processed() const { return events_processed_; }

  // Number of events scheduled but not yet fired.
  size_t pending_events() const { return live_count_; }

  // Slab occupancy introspection for tests: total slots ever allocated
  // across all arenas. A steady-state workload reuses slots through the free
  // lists, so this stays flat once the working set is warm.
  size_t slab_slots() const {
    size_t total = 0;
    for (const Arena& arena : arenas_) {
      total += arena.slot_count;
    }
    return total;
  }

  // Entries currently in the shard heaps, summed over shards: what the pop
  // path sifts through. Far-future tier entries are not counted. O(shards);
  // an accessor, not a registry metric, so no snapshot changes.
  size_t heap_entries() const {
    size_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.heap.size();
    }
    return total;
  }

  // EventCallback captures that exceeded kInlineBytes and heap-allocated.
  // Surfaced as an accessor (not a registry metric) so default snapshots —
  // and with them every golden — stay byte-identical.
  uint64_t callback_heap_spills() const { return callback_heap_spills_; }

  // Parallel-drain introspection: windows executed, mailbox deliveries, and
  // windows whose horizon was clamped by the run deadline.
  uint64_t parallel_windows() const { return parallel_windows_; }
  uint64_t parallel_mail_delivered() const { return parallel_mail_delivered_; }
  uint64_t parallel_horizon_clamps() const { return parallel_horizon_clamps_; }

  // Worker index of the calling context: 0 outside a parallel drain.
  uint32_t current_worker() const {
    const WorkerState* ws = tls_ctx_;
    return (ws != nullptr && ws->sim == this) ? ws->id : 0;
  }

 private:
  // One slab record. The callback's capture storage is inline, so scheduling
  // a small-capture event touches no allocator. A slot is on its arena's
  // free list exactly when no queued entry or running event holds it.
  struct Slot {
    internal::EventCallback cb;
    uint32_t next_free = 0;
  };

  // What the binary heaps actually move: a trivially-copyable 24-byte record.
  // `seq` is the monotonic scheduling sequence — the same tie-break the old
  // priority_queue used as its event id — so the (when, seq) total order (and
  // with it every metric snapshot) is byte-identical to the pre-slab core,
  // and independent of how entries are distributed across shards.
  struct HeapEntry {
    SimTime when;
    uint64_t seq;
    uint32_t slot;
  };
  static_assert(std::is_trivially_copyable_v<HeapEntry>,
                "heap sifts must never run user code (the pop path mutates no "
                "const refs — the old const_cast<Event&> move is gone)");

  // Far-future tier geometry: virtual time is cut into slabs of
  // 2^kSlabShift ns (65.536 us), and a ring of kRingBuckets slab buckets
  // spans ~16.8 ms — past the open-loop admission quantum (10 ms) and the
  // RNIC ACK timeout (5 ms), so only rarer, longer timers reach the overflow.
  static constexpr uint32_t kSlabShift = 16;
  static constexpr uint32_t kRingBuckets = 256;
  static constexpr uint32_t kRingMask = kRingBuckets - 1;
  static constexpr uint32_t kRingWords = kRingBuckets / 64;
  static constexpr uint32_t kNoNode = 0xFFFFFFFFu;

  static int64_t SlabOf(SimTime when) { return when >> kSlabShift; }

  // One far-future entry, linked into its slab bucket (or the free list).
  struct TierNode {
    SimTime when;
    uint64_t seq;
    uint32_t slot;
    uint32_t next;
  };

  // One independent event queue: a binary heap of near entries plus a
  // far-future tier of unsorted slab buckets. Invariant: every heap entry's
  // slab is < frontier_slab <= every tier entry's slab, so a non-empty heap's
  // head is the shard's earliest entry. A shard with an empty heap offers the
  // merge a lower bound on its tier instead, and is refilled from the tier
  // only when that bound wins the merge. Cache-line aligned so two workers
  // draining adjacent shards never false-share the heap vector headers or
  // the per-shard parallel sequence cursor.
  struct alignas(64) Shard {
    std::vector<HeapEntry> heap;
    // Next strided-sequence index for events originating from this shard
    // during a parallel drain; written only by the shard's owner.
    uint64_t par_seq_next = 0;
    int64_t frontier_slab = 0;
    size_t tier_count = 0;  // Entries in the ring plus the overflow.
    // Capacity reserved in each of heap, nodes and overflow (see
    // ReserveBacklog).
    size_t backlog_capacity = 0;
    // The ring covers slabs [frontier_slab, frontier_slab + kRingBuckets);
    // slab k lives in bucket k & kRingMask. A set bit marks a non-empty
    // bucket, whose head starts a kNoNode-terminated list in `nodes`.
    uint64_t ring_bits[kRingWords] = {};
    uint32_t ring_head[kRingBuckets] = {};
    // Node pool with a free list: a warm tier allocates nothing.
    std::vector<TierNode> nodes;
    uint32_t free_node = kNoNode;
    // Entries past the ring, as a (when, seq) min-heap; they migrate into
    // the ring as the frontier advances.
    std::vector<HeapEntry> overflow;
  };

  // Merge key of one shard's head, mirrored into the compact head_keys_
  // array: the scan for the global minimum reads 16 bytes per shard from one
  // contiguous block (branch-predictor- and prefetch-friendly) instead of
  // dereferencing every heap's out-of-line storage. Empty shards carry the
  // +inf sentinel so the scan needs no emptiness branch.
  struct HeadKey {
    SimTime when;
    uint64_t seq;
  };
  static constexpr HeadKey kEmptyHead{std::numeric_limits<SimTime>::max(),
                                      std::numeric_limits<uint64_t>::max()};

  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.seq < b.seq;
  }

  static bool HeadEmpty(const HeadKey& k) { return k.when == kEmptyHead.when && k.seq == kEmptyHead.seq; }

  static constexpr uint32_t kChunkShift = 10;
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;  // Slots per slab chunk.
  static constexpr uint32_t kNoFreeSlot = 0xFFFFFFFFu;
  // Slot indices are (arena << kArenaLocalBits) | local: arena 0 is the
  // serial slab (indices identical to the pre-arena layout), arena w+1 is
  // worker w's private slab. 32M slots per arena.
  static constexpr uint32_t kArenaLocalBits = 25;
  static constexpr uint32_t kArenaLocalMask = (1u << kArenaLocalBits) - 1;

  // One slab partition. Serial execution uses arena 0 only; each parallel
  // worker allocates and frees exclusively in its own arena (foreign frees
  // are deferred), so slot management never takes a lock. The chunk-pointer
  // spine is a fixed-capacity array allocated on first use: it never moves,
  // so a worker growing its own arena can never invalidate another worker's
  // read of a previously-published slot in it (leftover events when the
  // worker count changes between runs).
  struct Arena {
    static constexpr uint32_t kMaxChunks = 1u << (kArenaLocalBits - kChunkShift);
    std::unique_ptr<std::unique_ptr<Slot[]>[]> chunks;
    uint32_t chunk_count = 0;
    uint32_t slot_count = 0;
    uint32_t free_head = kNoFreeSlot;
  };

  // A cross-shard schedule buffered between epoch barriers: the callback
  // rides by value (no slot exists until the destination owner admits it).
  struct Mail {
    SimTime when;
    uint64_t seq;
    internal::EventCallback cb;
  };

  // Per-worker drain context. Cache-line aligned: every hot field a worker
  // touches per event lives here, and nothing in it is written by another
  // thread during the execute phase.
  struct alignas(64) WorkerState {
    Simulator* sim = nullptr;
    uint32_t id = 0;
    std::vector<uint32_t> owned;  // Shard indices, ascending.
    SimTime local_now = 0;
    uint32_t current_shard = 0;
    uint64_t executed = 0;
    int64_t live_delta = 0;
    uint64_t spills = 0;
    uint64_t mailed = 0;
    SimTime local_min = 0;
    SimTime max_exec_time = 0;
    std::vector<std::vector<Mail>> outbox;   // One mailbox per destination shard.
    std::vector<uint32_t> foreign_frees;     // Folded into their arenas after join.
  };

  // Phase-counter spin barrier: the Nth arriver runs the serial section and
  // bumps the phase; waiters spin briefly then yield (the test boxes and the
  // tsan leg run more workers than cores).
  struct SpinBarrier {
    std::atomic<uint32_t> arrived{0};
    std::atomic<uint32_t> phase{0};
    uint32_t total = 0;
  };

  Slot& SlotAt(uint32_t index) {
    Arena& arena = arenas_[index >> kArenaLocalBits];
    const uint32_t local = index & kArenaLocalMask;
    return arena.chunks[local >> kChunkShift][local & (kChunkSize - 1)];
  }

  uint32_t ShardIndex(uint32_t shard) const {
    return shard % static_cast<uint32_t>(shards_.size());
  }

  uint32_t CurrentShard() const {
    const WorkerState* ws = tls_ctx_;
    return (ws != nullptr && ws->sim == this) ? ws->current_shard : current_shard_;
  }

  WorkerState* ParallelContext() const {
    WorkerState* ws = tls_ctx_;
    return (ws != nullptr && ws->sim == this) ? ws : nullptr;
  }

  uint32_t AllocSlot(Arena& arena, uint32_t arena_index);
  void FreeSlot(uint32_t index);

  // Worker-context schedule: same-shard events push straight into the owned
  // heap; cross-shard events are mailboxed until the next barrier. Sequence
  // numbers stride by origin shard so the total order is independent of the
  // worker count.
  template <typename F>
  void ParallelScheduleAtOn(WorkerState* ws, uint32_t shard, SimTime when, F&& f) {
    shard = ShardIndex(shard);
    if (when < ws->local_now) {
      when = ws->local_now;
    }
    const uint32_t origin = ws->current_shard;
    const uint64_t seq = par_seq_base_ + origin +
                         static_cast<uint64_t>(shard_count()) * shards_[origin].par_seq_next++;
    ++ws->live_delta;
    if (shard == origin) {
      const uint32_t arena_index = ws->id + 1;
      const uint32_t slot_index = AllocSlot(arenas_[arena_index], arena_index);
      ws->spills += SlotAt(slot_index).cb.Emplace(std::forward<F>(f)) ? 1 : 0;
      HeapPush(shard, HeapEntry{when, seq, slot_index});
      return;
    }
    std::vector<Mail>& box = ws->outbox[shard];
    box.emplace_back();
    Mail& mail = box.back();
    mail.when = when;
    mail.seq = seq;
    ws->spills += mail.cb.Emplace(std::forward<F>(f)) ? 1 : 0;
    ++ws->mailed;
  }

  // Re-mirrors shard's heap head into head_keys_ — or, when only the tier
  // holds entries, a lower bound on them; the sentinel when the shard is
  // empty.
  void SyncHead(uint32_t shard) {
    const Shard& target = shards_[shard];
    if (!target.heap.empty()) {
      head_keys_[shard] = HeadKey{target.heap.front().when, target.heap.front().seq};
    } else {
      head_keys_[shard] = target.tier_count == 0 ? kEmptyHead : TierBound(target);
    }
  }

  // Serial admission of one entry: into the heap when it lies before the
  // shard's frontier (or opens a new frontier on an empty shard), else into
  // the tier. A tier insert lowers the head key of a shard whose heap is
  // empty, since the key is then a bound on the tier.
  void Enqueue(uint32_t shard, HeapEntry entry);
  void HeapPush(uint32_t shard, HeapEntry entry);
  void HeapPopTop(uint32_t shard);
  // Hole-based sift primitives shared by push/pop/rebuild.
  static void SiftUp(std::vector<HeapEntry>& heap, size_t i);
  static void SiftDown(std::vector<HeapEntry>& heap, size_t i);
  static void HeapPop(std::vector<HeapEntry>& heap);
  // Floyd bottom-up heapify of one shard heap (bulk admission).
  static void HeapRebuild(std::vector<HeapEntry>& heap);
  // Restores the heap property after entries were appended past `old_size`:
  // a bottom-up rebuild when the run rivals the backlog, sift-ups otherwise.
  static void HeapifyAppended(std::vector<HeapEntry>& heap, size_t old_size);

  // --- Far-future tier (simulator.cc) --------------------------------------
  // Sizes the heap, the node pool and the overflow for `pending` entries
  // before an admission. Each of them can end up holding the shard's whole
  // backlog, so each is sized for it, as a lone heap would be: a workload
  // whose backlog peak is warm then never allocates, however its entries
  // split between heap and tier.
  static void ReserveBacklog(Shard& shard, size_t pending) {
    if (pending > shard.backlog_capacity) {
      shard.backlog_capacity = 2 * pending;
      shard.heap.reserve(shard.backlog_capacity);
      shard.nodes.reserve(shard.backlog_capacity);
      shard.overflow.reserve(shard.backlog_capacity);
    }
  }
  static void TierInsert(Shard& shard, HeapEntry entry);
  static void RingInsert(Shard& shard, HeapEntry entry);
  // Moves overflow entries the ring window now covers into their buckets.
  static void MigrateOverflow(Shard& shard);
  // Slab of the earliest non-empty ring bucket (the ring must be non-empty).
  static int64_t FirstRingSlab(const Shard& shard);
  static bool RingEmpty(const Shard& shard);
  // A key no later than any tier entry: the earliest bucket's slab start
  // (seq 0), or the overflow head when the ring is empty.
  static HeadKey TierBound(const Shard& shard);
  // Appends every tier entry to `out` and empties the tier.
  static void DrainTier(Shard& shard, std::vector<HeapEntry>& out);
  // Moves the earliest non-empty slab into the empty heap and advances the
  // frontier past it. Serial context only.
  void Refill(uint32_t shard);

  // The deterministic merge: finds the shard holding the globally earliest
  // (when, seq) by a linear scan of the cached heads, refilling a shard whose
  // tier bound wins. Returns -1 when every shard is drained.
  int EarliestShard();

  // The single serial pop path: merges shard heads, then runs the next
  // event if its timestamp is <= `deadline`. Returns false when idle or the
  // next event is beyond the deadline.
  bool PopAndRunBefore(SimTime deadline);

  // --- Parallel drain internals (simulator.cc) -----------------------------
  uint32_t EffectiveWorkers() const;
  void RunParallelUntil(SimTime deadline);
  void WorkerLoop(WorkerState& ws, SimTime deadline);
  void DrainOwnShard(WorkerState& ws, uint32_t shard);
  void FlushMail(WorkerState& ws);
  SimTime ComputeLocalMin(const WorkerState& ws) const;
  // Serial section of the epoch barrier: computes the next window (or stop)
  // from the workers' local minima and runs the barrier hook.
  void AdvanceWindow(SimTime deadline);
  void BarrierWait(const std::function<void()>& serial_section);
  void ParallelFree(WorkerState& ws, uint32_t slot_index);

  SimTime now_ = 0;
  // Shard of the event currently executing; Schedule/ScheduleAt inherit it.
  uint32_t current_shard_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t events_processed_ = 0;
  size_t live_count_ = 0;
  std::atomic<bool> stopped_{false};
  std::vector<Shard> shards_;
  HeadKey head_keys_[kMaxShards] = {};  // Synced in SetShardCount and on push/pop.
  std::vector<Arena> arenas_;  // [0] serial slab; [w+1] worker w's slab.
  uint64_t callback_heap_spills_ = 0;

  // Parallel drain state. The window fields are written only inside the
  // barrier's serial section and read by workers after the phase publish
  // (release/acquire on SpinBarrier::phase orders them).
  uint32_t worker_count_ = 1;
  SimDuration lookahead_ = 1;
  std::function<void()> barrier_hook_;
  bool par_active_ = false;
  uint64_t par_seq_base_ = 0;
  SimTime win_end_ = 0;
  bool win_stop_ = false;
  uint64_t parallel_windows_ = 0;
  uint64_t parallel_mail_delivered_ = 0;
  uint64_t parallel_horizon_clamps_ = 0;
  std::vector<WorkerState> workers_;
  SpinBarrier barrier_;

  static thread_local WorkerState* tls_ctx_;
};

}  // namespace nadino

#endif  // SRC_SIM_SIMULATOR_H_
