#include "src/dne/rbr_table.h"

#include <utility>

namespace nadino {

bool RbrTable::Insert(uint64_t wr_id, Buffer* buffer, TenantId tenant) {
  const auto [entry, inserted] = entries_.TryEmplace(wr_id);
  if (inserted) {
    *entry = Entry{buffer, tenant};
  }
  return inserted;
}

Buffer* RbrTable::Consume(uint64_t wr_id, TenantId tenant) {
  const Entry* entry = entries_.Find(wr_id);
  if (entry == nullptr || entry->tenant != tenant) {
    ++mismatches_;
    return nullptr;
  }
  Buffer* buffer = entry->buffer;
  entries_.Erase(wr_id);
  ++consumed_[tenant];
  return buffer;
}

uint64_t RbrTable::TakeConsumedCount(TenantId tenant) {
  uint64_t* consumed = consumed_.Find(tenant);
  if (consumed == nullptr) {
    return 0;
  }
  return std::exchange(*consumed, 0);
}

}  // namespace nadino
