// Memory-region registration table for an RNIC.
//
// Before the RNIC may DMA into or out of a pool, the pool must be registered
// as a memory region with access flags (the DNE does this after importing the
// host pool via the cross-processor mmap, section 3.4.2). One-sided
// operations are validated against these flags; violations complete with
// kRemoteAccessError, mirroring real verbs semantics.

#ifndef SRC_RDMA_MEMORY_REGION_H_
#define SRC_RDMA_MEMORY_REGION_H_

#include <cstdint>
#include <map>

#include "src/core/types.h"
#include "src/mem/buffer_pool.h"
#include "src/rdma/verbs.h"

namespace nadino {

class MrTable {
 public:
  // Registers `pool` with the given access flags. Re-registration updates the
  // flags (used when tightening permissions in tests).
  void Register(BufferPool* pool, uint8_t access);

  bool IsRegistered(PoolId pool) const { return regions_.count(pool) > 0; }

  // Returns the pool if registered with *all* of `required_access` bits, else
  // nullptr (counted as an access violation when required_access != 0).
  BufferPool* CheckAccess(PoolId pool, uint8_t required_access);

  uint64_t access_violations() const { return access_violations_; }
  size_t region_count() const { return regions_.size(); }

 private:
  struct Region {
    BufferPool* pool = nullptr;
    uint8_t access = kMrLocal;
  };

  std::map<PoolId, Region> regions_;
  uint64_t access_violations_ = 0;
};

}  // namespace nadino

#endif  // SRC_RDMA_MEMORY_REGION_H_
