// Cross-processor (CPU<->DPU) shared memory via an export/import handshake.
//
// Models the DOCA mmap workflow (paper section 3.4.2):
//   1. the host-side shared-memory agent exports the tenant pool with
//      doca_mmap_export_pci() (DPU ARM access) and doca_mmap_export_rdma()
//      (RNIC access), producing an export descriptor;
//   2. the descriptor travels to the DNE over the Comch;
//   3. the DNE imports it with doca_mmap_create_from_export(), after which it
//      may register the host memory with the RNIC.
//
// The model enforces the protocol: imports fail on forged/garbled
// descriptors, and RNIC registration requires the rdma-export capability.
// This keeps the isolation story testable — a tenant that never exported its
// pool can never have it registered, and the DNE cannot touch pools it was
// not handed.

#ifndef SRC_DPU_CROSS_MMAP_H_
#define SRC_DPU_CROSS_MMAP_H_

#include <cstdint>
#include <map>

#include "src/core/types.h"
#include "src/mem/buffer_pool.h"
#include "src/rdma/rdma_engine.h"

namespace nadino {

// The opaque blob doca_mmap_export_* returns. `auth` binds the descriptor to
// the exporting registry so forged descriptors are rejected on import.
struct MmapExportDescriptor {
  PoolId pool = 0;
  bool pci_access = false;   // DPU ARM cores may address the memory.
  bool rdma_access = false;  // The integrated RNIC may register it.
  uint64_t auth = 0;
};

// Host side: the per-tenant shared-memory agent's export API.
class HostMemoryExporter {
 public:
  // doca_mmap_export_pci + doca_mmap_export_rdma combined; each flag opt-in.
  MmapExportDescriptor Export(BufferPool* pool, bool pci_access, bool rdma_access);

 private:
  uint64_t AuthFor(PoolId pool, bool pci, bool rdma) const;
  uint64_t secret_ = 0x5EED0FDECAFBADD1ULL;
  friend class DpuMmapTable;
};

// DPU side: the DNE's imported-memory table (doca_mmap_create_from_export).
class DpuMmapTable {
 public:
  explicit DpuMmapTable(const HostMemoryExporter* exporter) : exporter_(exporter) {}

  // Validates and records the export. Returns false on a forged descriptor.
  bool CreateFromExport(const MmapExportDescriptor& desc, BufferPool* pool);

  bool CanPciAccess(PoolId pool) const;
  bool CanRdmaRegister(PoolId pool) const;

  // Registers an imported pool with the RNIC (requires rdma access).
  bool RegisterWithRnic(PoolId pool, RdmaEngine* rnic, uint8_t mr_access);

  uint64_t rejected_imports() const { return rejected_imports_; }

 private:
  struct Imported {
    BufferPool* pool = nullptr;
    bool pci_access = false;
    bool rdma_access = false;
  };

  const HostMemoryExporter* exporter_;
  std::map<PoolId, Imported> imported_;
  uint64_t rejected_imports_ = 0;
};

}  // namespace nadino

#endif  // SRC_DPU_CROSS_MMAP_H_
