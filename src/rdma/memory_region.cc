#include "src/rdma/memory_region.h"

namespace nadino {

void MrTable::Register(BufferPool* pool, uint8_t access) {
  regions_[pool->id()] = Region{pool, access};
}

BufferPool* MrTable::CheckAccess(PoolId pool, uint8_t required_access) {
  const auto it = regions_.find(pool);
  if (it == regions_.end() || (it->second.access & required_access) != required_access) {
    ++access_violations_;
    return nullptr;
  }
  return it->second.pool;
}

}  // namespace nadino
