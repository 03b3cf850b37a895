#include "src/dne/scheduler.h"

#include <utility>

namespace nadino {

void FcfsScheduler::SetWeight(TenantId tenant, uint32_t weight) {
  (void)tenant;
  (void)weight;  // FCFS has no tenant awareness — that is its failure mode.
}

void FcfsScheduler::Enqueue(TxItem item) { queue_.push_back(std::move(item)); }

bool FcfsScheduler::Dequeue(TxItem* out) {
  if (queue_.empty()) {
    return false;
  }
  *out = std::move(queue_.front());
  queue_.pop_front();
  const TenantId tenant = out->tenant;
  if (tenant < kDirectTenantLimit) {
    if (tenant >= served_direct_.size()) {
      served_direct_.resize(tenant + 1, 0);
    }
    ++served_direct_[tenant];
  } else {
    ++served_overflow_[tenant];
  }
  return true;
}

uint64_t FcfsScheduler::Served(TenantId tenant) const {
  if (tenant < kDirectTenantLimit) {
    return tenant < served_direct_.size() ? served_direct_[tenant] : 0;
  }
  const auto it = served_overflow_.find(tenant);
  return it == served_overflow_.end() ? 0 : it->second;
}

uint32_t DwrrScheduler::IndexOf(TenantId tenant) {
  if (tenant < kDirectTenantLimit) {
    if (tenant >= direct_index_.size()) {
      direct_index_.resize(tenant + 1, kNoState);
    }
    uint32_t& slot = direct_index_[tenant];
    if (slot == kNoState) {
      slot = static_cast<uint32_t>(states_.size());
      states_.emplace_back();
    }
    return slot;
  }
  const auto it = overflow_index_.find(tenant);
  if (it != overflow_index_.end()) {
    return it->second;
  }
  const uint32_t index = static_cast<uint32_t>(states_.size());
  states_.emplace_back();
  overflow_index_.emplace(tenant, index);
  return index;
}

uint32_t DwrrScheduler::FindIndex(TenantId tenant) const {
  if (tenant < kDirectTenantLimit) {
    return tenant < direct_index_.size() ? direct_index_[tenant] : kNoState;
  }
  const auto it = overflow_index_.find(tenant);
  return it == overflow_index_.end() ? kNoState : it->second;
}

void DwrrScheduler::SetWeight(TenantId tenant, uint32_t weight) {
  StateOf(tenant).weight = weight == 0 ? 1 : weight;
}

void DwrrScheduler::Enqueue(TxItem item) {
  const uint32_t index = IndexOf(item.tenant);
  TenantState& state = states_[index];
  state.queue.push_back(std::move(item));
  ++pending_;
  if (!state.in_active_list) {
    state.in_active_list = true;
    state.fresh_visit = true;
    active_.push_back(index);
  }
}

bool DwrrScheduler::Dequeue(TxItem* out) {
  if (pending_ == 0) {
    return false;
  }
  // Round-robin over backlogged tenants. A tenant earns weight*quantum bytes
  // of deficit exactly once per round (on a fresh visit) and transmits while
  // the deficit covers its head item; when it no longer does, the tenant
  // rotates to the back carrying the remainder (oversized items accumulate
  // deficit across rounds rather than starving). Every full rotation adds at
  // least `quantum_` to some backlogged tenant, so progress is guaranteed;
  // the guard is only a runaway backstop (items are bounded by buffer sizes).
  const size_t guard_limit = active_.size() * 2 + 2 +
                             active_.size() * (64 * 1024 * 1024 / quantum_);
  for (size_t guard = 0; guard < guard_limit; ++guard) {
    if (active_.empty()) {
      return false;
    }
    const uint32_t index = active_.front();
    TenantState& state = states_[index];
    if (state.queue.empty()) {
      state.in_active_list = false;
      state.deficit = 0;
      active_.pop_front();
      continue;
    }
    if (state.fresh_visit) {
      state.deficit += static_cast<int64_t>(state.weight) * quantum_;
      state.fresh_visit = false;
    }
    if (state.deficit < static_cast<int64_t>(state.queue.front().bytes)) {
      // Quantum exhausted: yield the round to the next tenant.
      active_.pop_front();
      active_.push_back(index);
      state.fresh_visit = true;
      continue;
    }
    *out = std::move(state.queue.front());
    state.queue.pop_front();
    state.deficit -= out->bytes;
    ++state.served;
    --pending_;
    if (state.queue.empty()) {
      state.in_active_list = false;
      state.deficit = 0;
      active_.pop_front();
    }
    return true;
  }
  return false;
}

uint64_t DwrrScheduler::Served(TenantId tenant) const {
  const uint32_t index = FindIndex(tenant);
  return index == kNoState ? 0 : states_[index].served;
}

int64_t DwrrScheduler::DeficitOf(TenantId tenant) const {
  const uint32_t index = FindIndex(tenant);
  return index == kNoState ? 0 : states_[index].deficit;
}

}  // namespace nadino
