#include "src/sim/simulator.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <thread>

namespace nadino {

namespace {
constexpr SimTime kNoDeadline = std::numeric_limits<SimTime>::max();
}  // namespace

thread_local Simulator::WorkerState* Simulator::tls_ctx_ = nullptr;

Simulator::~Simulator() = default;

uint32_t Simulator::AllocSlot(Arena& arena, uint32_t arena_index) {
  if (arena.free_head != kNoFreeSlot) {
    const uint32_t index = arena.free_head;
    arena.free_head = SlotAt(index).next_free;
    return index;
  }
  assert(arena.slot_count < (1u << kArenaLocalBits) && "arena slot space exhausted");
  if ((arena.slot_count >> kChunkShift) == arena.chunk_count) {
    if (arena.chunks == nullptr) {
      arena.chunks = std::make_unique<std::unique_ptr<Slot[]>[]>(Arena::kMaxChunks);
    }
    arena.chunks[arena.chunk_count] = std::make_unique<Slot[]>(kChunkSize);
    ++arena.chunk_count;
  }
  return (arena_index << kArenaLocalBits) | arena.slot_count++;
}

void Simulator::FreeSlot(uint32_t index) {
  Arena& arena = arenas_[index >> kArenaLocalBits];
  SlotAt(index).next_free = arena.free_head;
  arena.free_head = index;
}

void Simulator::SetShardCount(uint32_t shards) {
  assert(!par_active_ && "SetShardCount during a parallel drain");
  if (shards < 1) {
    shards = 1;
  }
  if (shards > kMaxShards) {
    shards = kMaxShards;
  }
  if (shards == shards_.size()) {
    return;
  }
  // Consolidate whatever is pending onto shard 0 of the new layout: shard
  // residency is an implementation detail (the merge order is (when, seq)),
  // so redistribution never changes the executed sequence.
  std::vector<HeapEntry> pending;
  for (Shard& shard : shards_) {
    pending.insert(pending.end(), shard.heap.begin(), shard.heap.end());
    DrainTier(shard, pending);
  }
  shards_.assign(shards, Shard{});
  if (!pending.empty()) {
    std::sort(pending.begin(), pending.end(),
              [](const HeapEntry& a, const HeapEntry& b) { return Earlier(a, b); });
    // The earliest slab is the heap (a sorted run is a valid heap); the rest
    // goes back into the tier.
    Shard& first = shards_[0];
    ReserveBacklog(first, pending.size());
    first.frontier_slab = SlabOf(pending.front().when) + 1;
    for (const HeapEntry& entry : pending) {
      if (SlabOf(entry.when) < first.frontier_slab) {
        first.heap.push_back(entry);
      } else {
        TierInsert(first, entry);
      }
    }
  }
  std::fill(std::begin(head_keys_), std::end(head_keys_), kEmptyHead);
  SyncHead(0);
}

void Simulator::SetWorkerCount(uint32_t workers) {
  assert(!par_active_ && "SetWorkerCount during a parallel drain");
  if (workers < 1) {
    workers = 1;
  }
  if (workers > kMaxWorkers) {
    workers = kMaxWorkers;
  }
  worker_count_ = workers;
  if (arenas_.size() < static_cast<size_t>(workers) + 1) {
    arenas_.resize(workers + 1);
  }
}

// Hole-based sift-up: the entry rides up in a register while parents shift
// into the hole, halving the memory traffic of swap-based sifting.
void Simulator::SiftUp(std::vector<HeapEntry>& heap, size_t i) {
  const HeapEntry entry = heap[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!Earlier(entry, heap[parent])) {
      break;
    }
    heap[i] = heap[parent];
    i = parent;
  }
  heap[i] = entry;
}

// Hole-based sift-down of the entry at `i`.
void Simulator::SiftDown(std::vector<HeapEntry>& heap, size_t i) {
  const size_t n = heap.size();
  const HeapEntry entry = heap[i];
  for (;;) {
    const size_t left = 2 * i + 1;
    if (left >= n) {
      break;
    }
    size_t child = left;
    const size_t right = left + 1;
    if (right < n && Earlier(heap[right], heap[left])) {
      child = right;
    }
    if (!Earlier(heap[child], entry)) {
      break;
    }
    heap[i] = heap[child];
    i = child;
  }
  heap[i] = entry;
}

void Simulator::HeapPop(std::vector<HeapEntry>& heap) {
  const HeapEntry last = heap.back();
  heap.pop_back();
  if (!heap.empty()) {
    heap[0] = last;
    SiftDown(heap, 0);
  }
}

// Floyd's bottom-up heap construction: O(n) regardless of prior order, used
// when a bulk admission rivals the shard's existing backlog.
void Simulator::HeapRebuild(std::vector<HeapEntry>& heap) {
  for (size_t i = heap.size() / 2; i-- > 0;) {
    SiftDown(heap, i);
  }
}

void Simulator::HeapifyAppended(std::vector<HeapEntry>& heap, size_t old_size) {
  if (heap.size() - old_size >= old_size) {
    HeapRebuild(heap);
    return;
  }
  for (size_t i = old_size; i < heap.size(); ++i) {
    SiftUp(heap, i);
  }
}

void Simulator::Enqueue(uint32_t shard, HeapEntry entry) {
  Shard& target = shards_[shard];
  ReserveBacklog(target, target.heap.size() + target.tier_count + 1);
  const int64_t slab = SlabOf(entry.when);
  if (target.heap.empty() && target.tier_count == 0) {
    target.frontier_slab = slab + 1;  // An empty shard: open a new frontier.
  } else if (slab >= target.frontier_slab) {
    TierInsert(target, entry);
    if (target.heap.empty()) {
      SyncHead(shard);  // The head key is a bound on the tier: lower it if needed.
    }
    return;
  }
  HeapPush(shard, entry);
}

void Simulator::HeapPush(uint32_t shard, HeapEntry entry) {
  std::vector<HeapEntry>& heap = shards_[shard].heap;
  heap.push_back(entry);
  SiftUp(heap, heap.size() - 1);
  SyncHead(shard);
}

void Simulator::HeapPopTop(uint32_t shard) {
  std::vector<HeapEntry>& heap = shards_[shard].heap;
  HeapPop(heap);
  SyncHead(shard);
}

// --- Far-future tier ---------------------------------------------------------
//
// A calendar queue (Brown, CACM 1988) in front of each shard heap, after the
// ladder queue's lazily sorted rungs (Tang, Goh and Thng, ACM TOMACS 2005):
// entries sit unsorted in their slab's bucket until the shard's tier bound
// wins the merge, then the earliest slab is heapified as a whole. Entries
// past the ring wait in a (when, seq)-ordered overflow. An entry moves at most
// twice (overflow -> ring -> heap) and keeps its (when, seq), so the executed
// order cannot change.

void Simulator::TierInsert(Shard& shard, HeapEntry entry) {
  ++shard.tier_count;
  if (SlabOf(entry.when) < shard.frontier_slab + kRingBuckets) {
    RingInsert(shard, entry);
    return;
  }
  shard.overflow.push_back(entry);
  SiftUp(shard.overflow, shard.overflow.size() - 1);
}

void Simulator::RingInsert(Shard& shard, HeapEntry entry) {
  uint32_t n = shard.free_node;
  if (n != kNoNode) {
    shard.free_node = shard.nodes[n].next;
  } else {
    n = static_cast<uint32_t>(shard.nodes.size());
    shard.nodes.emplace_back();
  }
  const uint32_t b = static_cast<uint32_t>(SlabOf(entry.when)) & kRingMask;
  uint64_t& word = shard.ring_bits[b / 64];
  const uint64_t bit = uint64_t{1} << (b % 64);
  shard.nodes[n] = TierNode{entry.when, entry.seq, entry.slot,
                            (word & bit) != 0 ? shard.ring_head[b] : kNoNode};
  shard.ring_head[b] = n;
  word |= bit;
}

void Simulator::MigrateOverflow(Shard& shard) {
  const int64_t ring_end = shard.frontier_slab + kRingBuckets;
  while (!shard.overflow.empty() && SlabOf(shard.overflow.front().when) < ring_end) {
    const HeapEntry entry = shard.overflow.front();
    HeapPop(shard.overflow);
    RingInsert(shard, entry);
  }
}

bool Simulator::RingEmpty(const Shard& shard) {
  uint64_t any = 0;
  for (const uint64_t word : shard.ring_bits) {
    any |= word;
  }
  return any == 0;
}

Simulator::HeadKey Simulator::TierBound(const Shard& shard) {
  if (RingEmpty(shard)) {
    return HeadKey{shard.overflow.front().when, shard.overflow.front().seq};
  }
  return HeadKey{FirstRingSlab(shard) << kSlabShift, 0};
}

int64_t Simulator::FirstRingSlab(const Shard& shard) {
  // Scan the bitmap circularly from the frontier's bucket: every ring entry
  // lies within one ring span of the frontier, so the first set bit is the
  // earliest slab.
  const uint32_t start = static_cast<uint32_t>(shard.frontier_slab) & kRingMask;
  const uint32_t start_word = start / 64;
  for (uint32_t k = 0; k <= kRingWords; ++k) {
    const uint32_t w = (start_word + k) % kRingWords;
    uint64_t bits = shard.ring_bits[w];
    if (k == 0) {
      bits &= ~uint64_t{0} << (start % 64);  // Buckets at or after the start.
    } else if (k == kRingWords) {
      bits &= (uint64_t{1} << (start % 64)) - 1;  // Wrapped: buckets before it.
    }
    if (bits != 0) {
      const uint32_t b = w * 64 + static_cast<uint32_t>(__builtin_ctzll(bits));
      return shard.frontier_slab + ((b - start) & kRingMask);
    }
  }
  assert(false && "FirstRingSlab on an empty ring");
  return shard.frontier_slab;
}

void Simulator::DrainTier(Shard& shard, std::vector<HeapEntry>& out) {
  for (uint32_t b = 0; b < kRingBuckets && shard.tier_count > shard.overflow.size(); ++b) {
    if ((shard.ring_bits[b / 64] >> (b % 64) & 1) == 0) {
      continue;
    }
    for (uint32_t n = shard.ring_head[b]; n != kNoNode;) {
      TierNode& node = shard.nodes[n];
      out.push_back(HeapEntry{node.when, node.seq, node.slot});
      const uint32_t next = node.next;
      node.next = shard.free_node;
      shard.free_node = n;
      --shard.tier_count;
      n = next;
    }
  }
  std::fill(std::begin(shard.ring_bits), std::end(shard.ring_bits), 0);
  out.insert(out.end(), shard.overflow.begin(), shard.overflow.end());
  shard.overflow.clear();
  shard.tier_count = 0;
}

void Simulator::Refill(uint32_t shard_index) {
  assert(!par_active_ && "the tier is empty during a parallel drain");
  Shard& shard = shards_[shard_index];
  std::vector<HeapEntry>& heap = shard.heap;
  assert(heap.empty() && shard.tier_count > 0);
  if (RingEmpty(shard)) {
    // Jump the frontier to the overflow's earliest slab.
    shard.frontier_slab = SlabOf(shard.overflow.front().when);
    MigrateOverflow(shard);
  }
  const int64_t slab = FirstRingSlab(shard);
  const uint32_t b = static_cast<uint32_t>(slab) & kRingMask;
  for (uint32_t n = shard.ring_head[b]; n != kNoNode;) {
    TierNode& node = shard.nodes[n];
    heap.push_back(HeapEntry{node.when, node.seq, node.slot});
    const uint32_t next = node.next;
    node.next = shard.free_node;
    shard.free_node = n;
    --shard.tier_count;
    n = next;
  }
  shard.ring_bits[b / 64] &= ~(uint64_t{1} << (b % 64));
  shard.frontier_slab = slab + 1;
  MigrateOverflow(shard);
  HeapRebuild(heap);
}

int Simulator::EarliestShard() {
  const uint32_t count = static_cast<uint32_t>(shards_.size());
  for (;;) {
    // The merge scan reads only the compact head_keys_ array (16 bytes per
    // shard, contiguous); empty shards lose automatically via the sentinel,
    // so the loop body is a pair of compares the compiler can turn into
    // conditional moves.
    uint32_t best = 0;
    for (uint32_t s = 1; s < count; ++s) {
      const HeadKey& a = head_keys_[s];
      const HeadKey& b = head_keys_[best];
      if (a.when < b.when || (a.when == b.when && a.seq < b.seq)) {
        best = s;
      }
    }
    if (HeadEmpty(head_keys_[best])) {
      return -1;  // The minimum is the sentinel: every shard is drained.
    }
    if (!shards_[best].heap.empty()) {
      return static_cast<int>(best);
    }
    // A tier bound won: move the shard's earliest slab into its heap and
    // merge again on the real head.
    Refill(best);
    SyncHead(best);
  }
}

bool Simulator::PopAndRunBefore(SimTime deadline) {
  const int shard = EarliestShard();
  if (shard < 0) {
    return false;
  }
  // Copy the POD top out; the heap is never mutated through a const ref.
  const HeapEntry top = shards_[static_cast<uint32_t>(shard)].heap.front();
  if (top.when > deadline) {
    return false;
  }
  HeapPopTop(static_cast<uint32_t>(shard));
  // New events scheduled by this callback inherit the event's shard.
  current_shard_ = static_cast<uint32_t>(shard);
  Slot& slot = SlotAt(top.slot);
  now_ = top.when;
  ++events_processed_;
  --live_count_;
  // Invoke in place: the slot is freed only after the callback returns, so
  // a callback scheduling new events is never handed its own slot.
  slot.cb();
  slot.cb.Reset();
  FreeSlot(top.slot);
  return true;
}

void Simulator::Run() {
  if (EffectiveWorkers() > 1) {
    RunParallelUntil(kNoDeadline);
    return;
  }
  stopped_.store(false, std::memory_order_relaxed);
  while (!stopped_.load(std::memory_order_relaxed) && PopAndRunBefore(kNoDeadline)) {
  }
}

void Simulator::RunUntil(SimTime deadline) {
  if (EffectiveWorkers() > 1) {
    RunParallelUntil(deadline);
    if (now_ < deadline) {
      now_ = deadline;
    }
    return;
  }
  stopped_.store(false, std::memory_order_relaxed);
  while (!stopped_.load(std::memory_order_relaxed) && PopAndRunBefore(deadline)) {
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

bool Simulator::Step() {
  stopped_.store(false, std::memory_order_relaxed);
  return PopAndRunBefore(kNoDeadline);
}

// --- Parallel drain ----------------------------------------------------------

uint32_t Simulator::EffectiveWorkers() const {
  const uint32_t shards = static_cast<uint32_t>(shards_.size());
  return worker_count_ < shards ? worker_count_ : shards;
}

void Simulator::BarrierWait(const std::function<void()>& serial_section) {
  const uint32_t my_phase = barrier_.phase.load(std::memory_order_relaxed);
  if (barrier_.arrived.fetch_add(1, std::memory_order_acq_rel) + 1 == barrier_.total) {
    if (serial_section) {
      serial_section();
    }
    barrier_.arrived.store(0, std::memory_order_relaxed);
    barrier_.phase.store(my_phase + 1, std::memory_order_release);
    return;
  }
  int spins = 0;
  while (barrier_.phase.load(std::memory_order_acquire) == my_phase) {
    if (++spins > 256) {
      std::this_thread::yield();
    }
  }
}

SimTime Simulator::ComputeLocalMin(const WorkerState& ws) const {
  SimTime min = kNoDeadline;
  for (uint32_t s : ws.owned) {
    if (head_keys_[s].when < min) {
      min = head_keys_[s].when;
    }
  }
  return min;
}

void Simulator::AdvanceWindow(SimTime deadline) {
  SimTime global_min = kNoDeadline;
  for (const WorkerState& ws : workers_) {
    if (ws.local_min < global_min) {
      global_min = ws.local_min;
    }
  }
  if (barrier_hook_) {
    barrier_hook_();
  }
  if (stopped_.load(std::memory_order_relaxed) || global_min == kNoDeadline ||
      global_min > deadline) {
    win_stop_ = true;
    return;
  }
  ++parallel_windows_;
  SimTime end = (global_min > kNoDeadline - lookahead_) ? kNoDeadline : global_min + lookahead_;
  const SimTime cap = (deadline == kNoDeadline) ? kNoDeadline : deadline + 1;
  if (end > cap) {
    end = cap;
    ++parallel_horizon_clamps_;
  }
  win_end_ = end;
  win_stop_ = false;
}

void Simulator::ParallelFree(WorkerState& ws, uint32_t slot_index) {
  if ((slot_index >> kArenaLocalBits) == ws.id + 1) {
    FreeSlot(slot_index);
  } else {
    // The slot lives in another arena (serially-admitted events, or the main
    // slab): its free list is not ours to touch — fold after the join.
    ws.foreign_frees.push_back(slot_index);
  }
}

void Simulator::DrainOwnShard(WorkerState& ws, uint32_t shard) {
  ws.current_shard = shard;
  std::vector<HeapEntry>& heap = shards_[shard].heap;
  while (!heap.empty() && heap.front().when < win_end_) {
    if (stopped_.load(std::memory_order_relaxed)) {
      return;
    }
    const HeapEntry top = heap.front();
    HeapPopTop(shard);
    Slot& slot = SlotAt(top.slot);
    ws.local_now = top.when;
    if (top.when > ws.max_exec_time) {
      ws.max_exec_time = top.when;
    }
    ++ws.executed;
    --ws.live_delta;
    slot.cb();
    slot.cb.Reset();
    ParallelFree(ws, top.slot);
  }
}

void Simulator::FlushMail(WorkerState& ws) {
  const uint32_t arena_index = ws.id + 1;
  for (uint32_t s : ws.owned) {
    std::vector<HeapEntry>& heap = shards_[s].heap;
    const size_t old_size = heap.size();
    size_t added = 0;
    for (WorkerState& src : workers_) {
      std::vector<Mail>& box = src.outbox[s];
      for (Mail& mail : box) {
        const uint32_t slot_index = AllocSlot(arenas_[arena_index], arena_index);
        SlotAt(slot_index).cb = std::move(mail.cb);
        heap.push_back(HeapEntry{mail.when, mail.seq, slot_index});
        ++added;
      }
      box.clear();
    }
    if (added == 0) {
      continue;
    }
    HeapifyAppended(heap, old_size);
    SyncHead(s);
  }
}

void Simulator::WorkerLoop(WorkerState& ws, SimTime deadline) {
  tls_ctx_ = &ws;
  ws.local_min = ComputeLocalMin(ws);
  for (;;) {
    // Barrier B: the last arriver folds the local minima into the next
    // window (or the stop decision) and runs the barrier hook.
    BarrierWait([this, deadline] { AdvanceWindow(deadline); });
    if (win_stop_) {
      break;
    }
    for (uint32_t s : ws.owned) {
      DrainOwnShard(ws, s);
    }
    // Barrier A: every worker has finished executing; outboxes are quiesced
    // and safe for their destination owners to drain.
    BarrierWait(nullptr);
    FlushMail(ws);
    ws.local_min = ComputeLocalMin(ws);
  }
  tls_ctx_ = nullptr;
}

void Simulator::RunParallelUntil(SimTime deadline) {
  const uint32_t nworkers = EffectiveWorkers();
  const uint32_t nshards = shard_count();
  assert(nworkers > 1);
  assert(!par_active_ && "re-entrant parallel Run");
  stopped_.store(false, std::memory_order_relaxed);

  // Stride sequence numbers per origin shard from here on: disjoint from
  // every serially-assigned seq, unique per (origin, k), and assigned by the
  // deterministic per-shard execution — never by thread interleaving.
  par_seq_base_ = next_seq_;
  // Workers push straight into their heaps, so the tiers are emptied into
  // the heaps first and stay empty until the join.
  for (Shard& shard : shards_) {
    shard.par_seq_next = 0;
    const size_t old_size = shard.heap.size();
    DrainTier(shard, shard.heap);
    HeapifyAppended(shard.heap, old_size);
  }
  for (uint32_t s = 0; s < nshards; ++s) {
    SyncHead(s);  // A tier bound becomes the real head.
  }

  workers_.clear();
  workers_.resize(nworkers);
  for (uint32_t w = 0; w < nworkers; ++w) {
    WorkerState& ws = workers_[w];
    ws.sim = this;
    ws.id = w;
    ws.local_now = now_;
    ws.max_exec_time = now_;
    ws.outbox.resize(nshards);
    for (uint32_t s = w; s < nshards; s += nworkers) {
      ws.owned.push_back(s);
    }
  }
  barrier_.arrived.store(0, std::memory_order_relaxed);
  barrier_.phase.store(0, std::memory_order_relaxed);
  barrier_.total = nworkers;
  win_stop_ = false;
  par_active_ = true;

  std::vector<std::thread> threads;
  threads.reserve(nworkers - 1);
  for (uint32_t w = 1; w < nworkers; ++w) {
    threads.emplace_back([this, w, deadline] { WorkerLoop(workers_[w], deadline); });
  }
  WorkerLoop(workers_[0], deadline);
  for (std::thread& t : threads) {
    t.join();
  }
  par_active_ = false;

  // Fold the per-worker state back into the serial view.
  uint64_t max_par_next = 0;
  for (const Shard& shard : shards_) {
    if (shard.par_seq_next > max_par_next) {
      max_par_next = shard.par_seq_next;
    }
  }
  next_seq_ = par_seq_base_ + static_cast<uint64_t>(nshards) * max_par_next;
  int64_t live_delta = 0;
  SimTime max_exec = now_;
  for (WorkerState& ws : workers_) {
    events_processed_ += ws.executed;
    live_delta += ws.live_delta;
    callback_heap_spills_ += ws.spills;
    parallel_mail_delivered_ += ws.mailed;
    if (ws.max_exec_time > max_exec) {
      max_exec = ws.max_exec_time;
    }
    for (uint32_t slot_index : ws.foreign_frees) {
      FreeSlot(slot_index);
    }
    ws.foreign_frees.clear();
    ws.sim = nullptr;
  }
  live_count_ = static_cast<size_t>(static_cast<int64_t>(live_count_) + live_delta);
  if (max_exec > now_) {
    now_ = max_exec;
  }
  current_shard_ = 0;
  // Move each frontier just past its heap's latest entry, which restores the
  // heap-before-frontier invariant.
  for (Shard& shard : shards_) {
    SimTime latest = 0;
    for (const HeapEntry& entry : shard.heap) {
      latest = std::max(latest, entry.when);
    }
    shard.frontier_slab = SlabOf(latest) + 1;
  }
}

}  // namespace nadino
