// Receive Buffer Registry: maps a posted receive WR id to the buffer it was
// posted with (paper section 3.5.2). The DNE's RX stage looks completions up
// here to find where the payload was RDMAed, validates the binding, and
// tracks per-tenant CQE consumption so the core thread can replenish the
// shared RQ with an equal number of buffers.

#ifndef SRC_DNE_RBR_TABLE_H_
#define SRC_DNE_RBR_TABLE_H_

#include <cstddef>
#include <cstdint>

#include "src/core/types.h"
#include "src/mem/buffer.h"
#include "src/sim/flat_id_map.h"

namespace nadino {

class RbrTable {
 public:
  // Registers a posted receive. Returns false on wr_id reuse (a bug upstream).
  bool Insert(uint64_t wr_id, Buffer* buffer, TenantId tenant);

  // Resolves and removes the entry for a consumed completion. Returns nullptr
  // (and counts the mismatch) when the wr_id is unknown or the tenant
  // disagrees with the registration.
  Buffer* Consume(uint64_t wr_id, TenantId tenant);

  // Per-tenant CQEs consumed since the matching counter was last drained by
  // the replenisher.
  uint64_t TakeConsumedCount(TenantId tenant);

  size_t outstanding() const { return entries_.size(); }
  uint64_t mismatches() const { return mismatches_; }

 private:
  struct Entry {
    Buffer* buffer = nullptr;
    TenantId tenant = kInvalidTenant;
  };

  FlatIdMap<uint64_t, Entry> entries_;
  FlatIdMap<TenantId, uint64_t> consumed_;
  uint64_t mismatches_ = 0;
};

}  // namespace nadino

#endif  // SRC_DNE_RBR_TABLE_H_
