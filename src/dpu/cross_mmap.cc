#include "src/dpu/cross_mmap.h"

namespace nadino {

uint64_t HostMemoryExporter::AuthFor(PoolId pool, bool pci, bool rdma) const {
  uint64_t h = secret_ ^ (static_cast<uint64_t>(pool) * 0x9E3779B97F4A7C15ULL);
  h ^= pci ? 0xA5A5A5A5ULL : 0;
  h ^= rdma ? 0x5A5A5A5A00000000ULL : 0;
  h *= 0xFF51AFD7ED558CCDULL;
  return h ^ (h >> 33);
}

MmapExportDescriptor HostMemoryExporter::Export(BufferPool* pool, bool pci_access,
                                                bool rdma_access) {
  MmapExportDescriptor desc;
  desc.pool = pool->id();
  desc.pci_access = pci_access;
  desc.rdma_access = rdma_access;
  desc.auth = AuthFor(pool->id(), pci_access, rdma_access);
  return desc;
}

bool DpuMmapTable::CreateFromExport(const MmapExportDescriptor& desc, BufferPool* pool) {
  if (pool == nullptr || pool->id() != desc.pool ||
      desc.auth != exporter_->AuthFor(desc.pool, desc.pci_access, desc.rdma_access)) {
    ++rejected_imports_;
    return false;
  }
  imported_[desc.pool] = Imported{pool, desc.pci_access, desc.rdma_access};
  return true;
}

bool DpuMmapTable::CanPciAccess(PoolId pool) const {
  const auto it = imported_.find(pool);
  return it != imported_.end() && it->second.pci_access;
}

bool DpuMmapTable::CanRdmaRegister(PoolId pool) const {
  const auto it = imported_.find(pool);
  return it != imported_.end() && it->second.rdma_access;
}

bool DpuMmapTable::RegisterWithRnic(PoolId pool, RdmaEngine* rnic, uint8_t mr_access) {
  const auto it = imported_.find(pool);
  if (it == imported_.end() || !it->second.rdma_access) {
    return false;
  }
  rnic->mr_table().Register(it->second.pool, mr_access);
  return true;
}

}  // namespace nadino
